package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"seqmine/internal/dict"
	"seqmine/internal/lru"
	"seqmine/internal/seqdb"
)

// The shared dataset store moves a cluster job's input off the job-submission
// path. A database is serialized once into an immutable, content-addressed
// bundle (dictionary text plus varint-encoded sequences); its id is the
// SHA-256 of the bundle bytes. Workers hold decoded bundles in a small LRU
// keyed by id, and job specs reference the id plus the worker's peer index
// instead of inlining its share — so a resubmission or a retry against an
// already-pushed dataset ships zero sequence bytes.

// bundleMagic versions the bundle encoding.
const bundleMagic = "SQDS1\n"

// maxBundleSeqs bounds the sequence count a decoder will allocate for (an
// upload is already size-capped; this guards the varint header itself).
const maxBundleSeqs = 1 << 31

// EncodeBundle serializes a database as one immutable bundle and returns the
// bundle bytes with their content id.
func EncodeBundle(db *seqdb.Database) ([]byte, string, error) {
	if db == nil || db.Dict == nil {
		return nil, "", fmt.Errorf("cluster: nil database")
	}
	var dictText strings.Builder
	if err := db.Dict.Save(&dictText); err != nil {
		return nil, "", fmt.Errorf("cluster: serializing dictionary: %w", err)
	}
	buf := make([]byte, 0, len(dictText.String())+16*len(db.Sequences)+len(bundleMagic))
	buf = append(buf, bundleMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(dictText.String())))
	buf = append(buf, dictText.String()...)
	buf = binary.AppendUvarint(buf, uint64(len(db.Sequences)))
	for _, seq := range db.Sequences {
		buf = binary.AppendUvarint(buf, uint64(len(seq)))
		for _, it := range seq {
			buf = binary.AppendUvarint(buf, uint64(it))
		}
	}
	return buf, BundleID(buf), nil
}

// BundleID returns the content id of bundle bytes.
func BundleID(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256-" + hex.EncodeToString(sum[:])
}

// DecodeBundle parses bundle bytes back into a database.
func DecodeBundle(data []byte) (*seqdb.Database, error) {
	if len(data) < len(bundleMagic) || string(data[:len(bundleMagic)]) != bundleMagic {
		return nil, fmt.Errorf("cluster: bad bundle magic")
	}
	pos := len(bundleMagic)
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("cluster: truncated bundle varint at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	dictLen, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if dictLen > uint64(len(data)-pos) {
		return nil, fmt.Errorf("cluster: bundle dictionary of %d bytes exceeds payload", dictLen)
	}
	d, err := dict.Load(strings.NewReader(string(data[pos : pos+int(dictLen)])))
	if err != nil {
		return nil, fmt.Errorf("cluster: loading bundle dictionary: %w", err)
	}
	pos += int(dictLen)
	nseqs, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Every sequence occupies at least one byte (its length varint).
	if nseqs > maxBundleSeqs || nseqs > uint64(len(data)-pos) {
		return nil, fmt.Errorf("cluster: bundle claims %d sequences in %d bytes", nseqs, len(data)-pos)
	}
	// Decode into one contiguous backing array (matching seqdb.Build's
	// layout), so mining over the restored database scans memory linearly.
	// Sub-slices are taken only once backing has its final size — appends may
	// reallocate it.
	offsets := make([]int, 0, nseqs+1)
	offsets = append(offsets, 0)
	var backing []dict.ItemID
	for i := uint64(0); i < nseqs; i++ {
		n, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)-pos) {
			return nil, fmt.Errorf("cluster: bundle sequence %d claims %d items in %d bytes", i, n, len(data)-pos)
		}
		for j := uint64(0); j < n; j++ {
			v, err := readUvarint()
			if err != nil {
				return nil, err
			}
			it := dict.ItemID(v)
			if !d.Contains(it) {
				return nil, fmt.Errorf("cluster: bundle sequence %d contains unknown fid %d", i, v)
			}
			backing = append(backing, it)
		}
		offsets = append(offsets, len(backing))
	}
	seqs := make([][]dict.ItemID, 0, nseqs)
	for i := 0; i+1 < len(offsets); i++ {
		seqs = append(seqs, backing[offsets[i]:offsets[i+1]:offsets[i+1]])
	}
	if pos != len(data) {
		return nil, fmt.Errorf("cluster: %d trailing bytes after bundle", len(data)-pos)
	}
	return &seqdb.Database{Dict: d, Sequences: seqs}, nil
}

// Store is a worker's slice of the shared dataset store: decoded bundles in
// an lru.Cache keyed by content id. All methods are safe for concurrent use.
type Store struct {
	c *lru.Cache[string, storeEntry]
}

type storeEntry struct {
	db    *seqdb.Database
	bytes int64
}

// DefaultStoreEntries is the dataset capacity of a worker's store when none
// is configured.
const DefaultStoreEntries = 16

// NewStore creates a store holding at most maxEntries decoded datasets
// (<= 0 uses DefaultStoreEntries). Eviction is LRU by last Get/Has/Put.
func NewStore(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = DefaultStoreEntries
	}
	return &Store{c: lru.New[string, storeEntry](maxEntries, nil)}
}

// Get returns the decoded dataset for id, if present, bumping its recency.
func (s *Store) Get(id string) (*seqdb.Database, bool) {
	e, ok := s.c.Lookup(id)
	return e.db, ok
}

// Has reports whether id is present.
func (s *Store) Has(id string) bool {
	_, ok := s.c.Lookup(id)
	return ok
}

// Put verifies data against id, decodes it and stores the dataset. The bundle
// is immutable, so storing an id that is already present is a cheap no-op, and
// concurrent Puts of one id decode it once.
func (s *Store) Put(id string, data []byte) error {
	if got := BundleID(data); got != id {
		return fmt.Errorf("cluster: bundle content hash %s does not match id %s", got, id)
	}
	_, _, err := s.c.Get(context.Background(), id, func() (storeEntry, error) {
		db, err := DecodeBundle(data)
		return storeEntry{db: db, bytes: int64(len(data))}, err
	})
	return err
}

// Len returns the number of stored datasets.
func (s *Store) Len() int { return s.c.Stats().Size }

// StoreInfo describes one stored dataset.
type StoreInfo struct {
	ID        string `json:"id"`
	Sequences int    `json:"sequences"`
	Bytes     int64  `json:"bytes"`
}

// List returns the stored datasets, least recently used first.
func (s *Store) List() []StoreInfo {
	out := []StoreInfo{}
	s.c.Walk(func(id string, e storeEntry) bool {
		out = append(out, StoreInfo{ID: id, Sequences: len(e.db.Sequences), Bytes: e.bytes})
		return true
	})
	return out
}
