package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutGolden runs the example and compares its stdout with
// testdata/stdout.golden byte for byte.
func TestStdoutGolden(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	defer func() { os.Stdout = stdout }()
	os.Stdout = out
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("stdout drifted from testdata/stdout.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
