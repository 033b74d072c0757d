package multisimd

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt fails on every .go file whose bytes differ from go/format's
// rendering: the check `gofmt -l .` makes, as a test. It walks the
// files gofmt walks from the module root, perfbench/ and testdata
// included, skipping dot-directories (.git, build outputs such as
// .bench_build).
func TestGofmt(t *testing.T) {
	n := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") && p != "." {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		n++
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", p, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", p, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no .go files found")
	}
}
