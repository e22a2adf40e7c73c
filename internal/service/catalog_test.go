package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqmine/internal/paperex"
	"seqmine/internal/seqdb"
)

func catalogDB(t *testing.T) *seqdb.Database {
	t.Helper()
	db, err := seqdb.Build(paperex.RawDB(), seqdb.Hierarchy{"a1": {"A"}, "a2": {"A"}})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCatalogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalogDB(t)
	id, err := c.Put("ex", db, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("other", db, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("other"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the surviving binding replays, the deleted one does not.
	c2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	entries := c2.Entries()
	if len(entries) != 1 || entries[0].Name != "ex" || entries[0].ID != id || entries[0].Tenant != "acme" {
		t.Fatalf("reopened entries = %+v, want the single ex binding", entries)
	}
	got, err := c2.Load(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Dict.Size() != db.Dict.Size() || len(got.Sequences) != len(db.Sequences) {
		t.Fatalf("restored database differs: %d items / %d sequences, want %d / %d",
			got.Dict.Size(), len(got.Sequences), db.Dict.Size(), len(db.Sequences))
	}
}

// TestCatalogSecondOpenFails: a second catalog over a held directory would
// append to a journal the first one's compaction unlinks, so it must fail at
// open, naming the directory; once the first closes, the directory reopens
// with everything the first registered.
func TestCatalogSecondOpenFails(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2, err := OpenCatalog(dir); err == nil || !strings.Contains(err.Error(), dir) {
		if c2 != nil {
			c2.Close()
		}
		t.Fatalf("second open of a held directory: err = %v, want an error naming %s", err, dir)
	}
	if _, err := c1.Put("x", catalogDB(t), ""); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	defer c3.Close()
	if entries := c3.Entries(); len(entries) != 1 || entries[0].Name != "x" {
		t.Fatalf("reopened entries = %+v, want x", entries)
	}
}

func TestCatalogReplaceKeepsLatest(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalogDB(t)
	if _, err := c.Put("ex", db, "old"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("ex", db, "new"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	entries := c2.Entries()
	if len(entries) != 1 || entries[0].Tenant != "new" {
		t.Fatalf("entries = %+v, want the latest registration to win", entries)
	}
}

func TestCatalogTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("ex", catalogDB(t), ""); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Simulate a crash mid-append: a final line without a newline must be
	// dropped silently; the complete records before it survive.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","name":"torn","id":"sha256:feed`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	defer c2.Close()
	entries := c2.Entries()
	if len(entries) != 1 || entries[0].Name != "ex" {
		t.Fatalf("entries = %+v, want only the complete record", entries)
	}
}

func TestCatalogCorruptCompleteLineErrors(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte("this is not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCatalog(dir); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("corrupt journal error = %v, want a line-numbered parse failure", err)
	}
}

func TestCatalogCompactsOnOpen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalogDB(t)
	// Churn: repeated replacement and deletion grows the journal.
	for i := 0; i < 10; i++ {
		if _, err := c.Put("ex", db, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("ex"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("keep", db, ""); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	buf, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf, []byte{'\n'}); lines != 1 {
		t.Fatalf("compacted journal has %d lines, want 1 (only the live binding)", lines)
	}
}

// FuzzCatalogJournal fuzzes the journal replay path: arbitrary bytes must
// never panic, and whatever entry set a journal replays to must survive a
// re-encode/replay round trip unchanged (the compaction invariant).
func FuzzCatalogJournal(f *testing.F) {
	f.Add([]byte(`{"op":"put","name":"a","id":"sha256:00"}` + "\n"))
	f.Add([]byte(`{"op":"put","name":"a","id":"sha256:00","tenant":"t"}` + "\n" + `{"op":"del","name":"a"}` + "\n"))
	f.Add([]byte(`{"op":"put","name":"a","id":"x"}`)) // torn tail
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"op":"bogus"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := replayJournal(bytes.NewReader(data))
		if err != nil {
			return // malformed complete lines are rejected; that's the contract
		}
		// Round trip: re-encoding the live set and replaying it must
		// reproduce the same set (what compaction relies on).
		var buf bytes.Buffer
		for name := range entries {
			if err := appendJournal(&buf, journalRecord{Op: "put", CatalogEntry: entries[name]}); err != nil {
				t.Fatalf("re-encoding %+v: %v", entries[name], err)
			}
		}
		again, err := replayJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("replaying re-encoded journal: %v (journal %q)", err, buf.String())
		}
		if !reflect.DeepEqual(entries, again) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", entries, again)
		}
	})
}
