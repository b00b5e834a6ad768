package study_test

import (
	"testing"

	"fabricpower/study"
)

// TestModelSpecBuildAllocationFree pins that resolving a model spec
// builds nothing on the heap: the paper's tables are package constants,
// so Build only fills in a value. (A techScale spec names its scaled
// technology point with Sprintf and is left out.)
func TestModelSpecBuildAllocationFree(t *testing.T) {
	for name, spec := range map[string]study.ModelSpec{
		"paper":   study.PaperModel(),
		"perword": study.PerWordModel(),
		"static":  {Static: true},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := spec.Build(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); n != 0 {
			t.Errorf("%s: Build allocates %v times, want 0", name, n)
		}
	}
}
