package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"seqmine/internal/cluster"
	"seqmine/internal/seqdb"
)

// Catalog is the persistent dataset catalog of the serving tier. The daemon's
// in-memory registry forgets everything on restart; a catalog makes
// registrations durable by splitting them into two parts:
//
//   - the sequence bytes live in a content-addressed bundle store
//     (cluster.BundleDir — the same SQDS1 encoding the cluster's dataset
//     store ships to workers), immutable and shareable across processes;
//   - the name -> bundle-id binding lives in an append-only journal of JSON
//     lines (catalog.journal), one record per register/unregister.
//
// On open, the journal is replayed (last record per name wins) and compacted.
// A daemon that restarts re-registers every cataloged dataset from the local
// bundle files — no re-PUT needed.
//
// One Catalog at a time may hold a directory. Compaction renames a new
// journal over the old one, so a second opener would keep appending to the
// unlinked file and its registrations would be lost; OpenCatalog therefore
// takes an exclusive lock on catalog.lock, released by Close or process exit.
type Catalog struct {
	dir     string
	bundles *cluster.BundleDir
	lock    *os.File

	mu      sync.Mutex
	journal *os.File
	entries map[string]CatalogEntry
}

// CatalogEntry is one live binding of the catalog.
type CatalogEntry struct {
	// Name is the dataset name in the registry.
	Name string `json:"name"`
	// ID is the content id of the dataset's bundle in the store.
	ID string `json:"id"`
	// Tenant is the owner recorded at registration ("" for anonymous).
	Tenant string `json:"tenant,omitempty"`
}

// journalRecord is one line of catalog.journal.
type journalRecord struct {
	// Op is "put" or "del".
	Op string `json:"op"`
	CatalogEntry
}

const journalName = "catalog.journal"

// OpenCatalog opens (creating if needed) a catalog directory, replays its
// journal and compacts it. It fails while another Catalog holds dir.
func OpenCatalog(dir string) (_ *Catalog, err error) {
	if dir == "" {
		return nil, fmt.Errorf("service: catalog directory must not be empty")
	}
	bundles, err := cluster.OpenBundleDir(filepath.Join(dir, "bundles"))
	if err != nil {
		return nil, err
	}
	lock, err := os.OpenFile(filepath.Join(dir, "catalog.lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("service: catalog directory %s is held by another open catalog: %w", dir, err)
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	c := &Catalog{dir: dir, bundles: bundles, lock: lock}
	path := filepath.Join(dir, journalName)
	if f, err := os.Open(path); err == nil {
		c.entries, err = replayJournal(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("service: replaying catalog journal %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		c.entries = make(map[string]CatalogEntry)
	}
	// Compact: rewrite the live entries and swap the journal atomically, so
	// deletions and re-registrations do not grow the file without bound.
	if err := c.compactLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// replayJournal folds journal lines into the live entry set: a "put" binds a
// name, a "del" unbinds it, later records win. A trailing line without a
// newline is a torn append (the process died mid-write) and is ignored; a
// malformed complete line is corruption and errors.
func replayJournal(r io.Reader) (map[string]CatalogEntry, error) {
	entries := make(map[string]CatalogEntry)
	br := bufio.NewReader(r)
	lineno := 0
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			// No trailing newline: a torn final append; drop it.
			return entries, nil
		}
		if err != nil {
			return nil, err
		}
		lineno++
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		switch rec.Op {
		case "put":
			if rec.Name == "" || rec.ID == "" {
				return nil, fmt.Errorf("line %d: put record missing name or id", lineno)
			}
			entries[rec.Name] = rec.CatalogEntry
		case "del":
			if rec.Name == "" {
				return nil, fmt.Errorf("line %d: del record missing name", lineno)
			}
			delete(entries, rec.Name)
		default:
			return nil, fmt.Errorf("line %d: unknown op %q", lineno, rec.Op)
		}
	}
}

// appendJournal encodes records as journal lines (the inverse of
// replayJournal).
func appendJournal(w io.Writer, recs ...journalRecord) error {
	for _, rec := range recs {
		buf, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked rewrites the journal with only the live entries (sorted for
// determinism) into a temp file renamed over the old journal, then reopens it
// for appending. Callers must hold no lock on a fresh catalog or c.mu
// otherwise.
func (c *Catalog) compactLocked() error {
	if c.journal != nil {
		c.journal.Close()
		c.journal = nil
	}
	path := filepath.Join(c.dir, journalName)
	tmp, err := os.CreateTemp(c.dir, ".journal-*")
	if err != nil {
		return err
	}
	names := make([]string, 0, len(c.entries))
	for name := range c.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]journalRecord, 0, len(names))
	for _, name := range names {
		recs = append(recs, journalRecord{Op: "put", CatalogEntry: c.entries[name]})
	}
	if err := appendJournal(tmp, recs...); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	c.journal = f
	return nil
}

// Put stores a dataset's bundle and journals the name binding. It returns
// the bundle's content id.
func (c *Catalog) Put(name string, db *seqdb.Database, tenant string) (string, error) {
	data, id, err := cluster.EncodeBundle(db)
	if err != nil {
		return "", err
	}
	if err := c.bundles.Put(id, data); err != nil {
		return "", err
	}
	entry := CatalogEntry{Name: name, ID: id, Tenant: tenant}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(journalRecord{Op: "put", CatalogEntry: entry}); err != nil {
		return "", err
	}
	c.entries[name] = entry
	return id, nil
}

// Delete journals the removal of a name binding. Removing an unknown name is
// a no-op (the registry is the source of truth for existence errors).
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; !ok {
		return nil
	}
	if err := c.appendLocked(journalRecord{Op: "del", CatalogEntry: CatalogEntry{Name: name}}); err != nil {
		return err
	}
	delete(c.entries, name)
	return nil
}

func (c *Catalog) appendLocked(rec journalRecord) error {
	if c.journal == nil {
		return fmt.Errorf("service: catalog is closed")
	}
	if err := appendJournal(c.journal, rec); err != nil {
		return err
	}
	return c.journal.Sync()
}

// Load decodes the bundle bound to one catalog entry.
func (c *Catalog) Load(entry CatalogEntry) (*seqdb.Database, error) {
	data, err := c.bundles.Get(entry.ID)
	if err != nil {
		return nil, fmt.Errorf("service: catalog entry %q: %w", entry.Name, err)
	}
	return cluster.DecodeBundle(data)
}

// Entries lists the live catalog entries, sorted by name.
func (c *Catalog) Entries() []CatalogEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CatalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dir returns the catalog directory.
func (c *Catalog) Dir() string { return c.dir }

// Close closes the journal and releases the directory. Further Put/Delete
// calls fail.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	if lerr := c.lock.Close(); err == nil {
		err = lerr
	}
	return err
}
