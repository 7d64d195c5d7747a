package suite

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/atest"
)

// TestTreeIsClean runs the suite over every package of the module, each
// with its tests, as `go vet ./...` would: any diagnostic fails.
func TestTreeIsClean(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		name := d.Name()
		if rel != "." && (name == "vendor" || name == "testdata" || rel == "benchmark/out" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) > 0 {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := atest.Module(root, Analyzers(), dirs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		d.Pos.Filename, _ = filepath.Rel(root, d.Pos.Filename)
		t.Error(d)
	}
}
