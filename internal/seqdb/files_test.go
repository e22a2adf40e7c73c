package seqdb_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqmine/internal/paperex"
	"seqmine/internal/seqdb"
)

func writeExampleDataset(t *testing.T, dir string) (seqPath, hierPath string) {
	t.Helper()
	var seqs strings.Builder
	for _, s := range paperex.RawDB() {
		seqs.WriteString(strings.Join(s, " "))
		seqs.WriteByte('\n')
	}
	seqPath = filepath.Join(dir, "sequences.txt")
	if err := os.WriteFile(seqPath, []byte(seqs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	hierPath = filepath.Join(dir, "hierarchy.txt")
	if err := os.WriteFile(hierPath, []byte("a1\tA\na2\tA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return seqPath, hierPath
}

func TestReadFiles(t *testing.T) {
	seqPath, hierPath := writeExampleDataset(t, t.TempDir())
	db, err := seqdb.ReadFiles(seqPath, hierPath)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != len(paperex.RawDB()) {
		t.Fatalf("NumSequences = %d, want %d", db.NumSequences(), len(paperex.RawDB()))
	}
	// The hierarchy must have taken effect: "A" is an ancestor item in the dict.
	if _, ok := db.Dict.Fid("A"); !ok {
		t.Fatal("ancestor item A missing from the dictionary")
	}

	// Omitting the hierarchy is allowed and yields a flat dictionary.
	flat, err := seqdb.ReadFiles(seqPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumSequences() != db.NumSequences() {
		t.Fatalf("flat NumSequences = %d", flat.NumSequences())
	}

	if _, err := seqdb.ReadFiles(filepath.Join(t.TempDir(), "absent.txt"), ""); err == nil {
		t.Fatal("missing sequences file accepted")
	}
	if _, err := seqdb.ReadFiles(seqPath, filepath.Join(t.TempDir(), "absent.txt")); err == nil {
		t.Fatal("missing hierarchy file accepted")
	}
}
