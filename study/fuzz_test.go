package study_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fabricpower/study"
)

// FuzzDecodeSpec feeds DecodeSpec hostile documents. It must never
// panic, and any spec it accepts must survive Encode → DecodeSpec →
// Encode byte for byte, so a spec a server accepts is the spec it
// prints back. The corpus seeds are every checked-in scenario and
// paper study file; crashers found so far live under
// testdata/fuzz/FuzzDecodeSpec.
func FuzzDecodeSpec(f *testing.F) {
	for _, pattern := range []string{
		filepath.Join("..", "scenarios", "*.json"),
		filepath.Join("..", "internal", "exp", "paper", "*.json"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no seed specs match %s", pattern)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := study.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := spec.Encode(&first); err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := study.DecodeSpec(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("encoded spec does not decode: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatalf("re-decoded spec does not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the spec:\n--- first ---\n%s\n--- second ---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
