package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"seqmine/internal/paperex"
	"seqmine/internal/seqdb"
	"seqmine/internal/transport"
)

func testDB(t *testing.T) *seqdb.Database {
	t.Helper()
	d := paperex.Dict()
	return &seqdb.Database{Dict: d, Sequences: paperex.DB(d)}
}

func TestBundleRoundTrip(t *testing.T) {
	db := testDB(t)
	data, id, err := EncodeBundle(db)
	if err != nil {
		t.Fatalf("EncodeBundle: %v", err)
	}
	if !strings.HasPrefix(id, "sha256-") || id != BundleID(data) {
		t.Fatalf("bundle id %q is not the content hash", id)
	}
	got, err := DecodeBundle(data)
	if err != nil {
		t.Fatalf("DecodeBundle: %v", err)
	}
	if len(got.Sequences) != len(db.Sequences) {
		t.Fatalf("decoded %d sequences, want %d", len(got.Sequences), len(db.Sequences))
	}
	for i, seq := range db.Sequences {
		if len(got.Sequences[i]) != len(seq) {
			t.Fatalf("sequence %d length mismatch", i)
		}
		for j, it := range seq {
			if got.Sequences[i][j] != it {
				t.Fatalf("sequence %d item %d: got %d, want %d", i, j, got.Sequences[i][j], it)
			}
		}
	}
	if got.Dict.Size() != db.Dict.Size() {
		t.Fatalf("decoded dictionary size %d, want %d", got.Dict.Size(), db.Dict.Size())
	}
	// Deterministic encoding: the same database yields the same id.
	_, id2, err := EncodeBundle(db)
	if err != nil || id2 != id {
		t.Fatalf("re-encoding changed the id: %q vs %q (%v)", id2, id, err)
	}
}

func TestBundleDecodeRejectsCorruption(t *testing.T) {
	db := testDB(t)
	data, _, err := EncodeBundle(db)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE!\nrest"),
		"truncated":   data[:len(data)/2],
		"trailing":    append(append([]byte(nil), data...), 0x01),
		"unknown fid": func() []byte { d := append([]byte(nil), data...); d[len(d)-1] = 0xff; return d }(),
	}
	for name, d := range cases {
		if _, err := DecodeBundle(d); err == nil {
			t.Errorf("%s: DecodeBundle accepted corrupt input", name)
		}
	}
}

// TestBundleDecodeRejectsUnorderedDictionary: a bundle carries its
// dictionary's Save text, so a dictionary whose frequencies rise with fid is
// refused with the item that breaks the order, while the same items in
// frequency order decode.
func TestBundleDecodeRejectsUnorderedDictionary(t *testing.T) {
	bundle := func(dictText string) []byte {
		data := binary.AppendUvarint([]byte(bundleMagic), uint64(len(dictText)))
		data = append(data, dictText...)
		return binary.AppendUvarint(data, 1)
	}
	if _, err := DecodeBundle(append(bundle("x\t2\ny\t1\n"), 1, 2)); err != nil {
		t.Fatalf("ordered dictionary: %v", err)
	}
	_, err := DecodeBundle(append(bundle("x\t1\ny\t2\n"), 1, 2))
	if err == nil || !strings.Contains(err.Error(), `"y"`) {
		t.Fatalf("rising frequency: error %v, want one naming item \"y\"", err)
	}
}

func TestStorePutVerifiesHash(t *testing.T) {
	db := testDB(t)
	data, id, err := EncodeBundle(db)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(2)
	if err := s.Put("sha256-wrong", data); err == nil {
		t.Fatal("Put accepted a mismatched id")
	}
	if err := s.Put(id, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(id, data); err != nil {
		t.Fatalf("idempotent Put: %v", err)
	}
	if got, ok := s.Get(id); !ok || len(got.Sequences) != len(db.Sequences) {
		t.Fatalf("Get(%s) = %v, %v", id, got, ok)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	mkBundle := func(n int) (string, []byte) {
		t.Helper()
		raw := make([][]string, n)
		for i := range raw {
			raw[i] = []string{"a", "b"}
		}
		db, err := seqdb.Build(raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, id, err := EncodeBundle(db)
		if err != nil {
			t.Fatal(err)
		}
		return id, data
	}
	s := NewStore(2)
	id1, d1 := mkBundle(1)
	id2, d2 := mkBundle(2)
	id3, d3 := mkBundle(3)
	for _, p := range []struct {
		id   string
		data []byte
	}{{id1, d1}, {id2, d2}} {
		if err := s.Put(p.id, p.data); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(id1); !ok { // bump id1: id2 becomes the LRU victim
		t.Fatal("id1 missing")
	}
	if err := s.Put(id3, d3); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2", s.Len())
	}
	if s.Has(id2) {
		t.Error("id2 should have been evicted (LRU)")
	}
	if !s.Has(id1) || !s.Has(id3) {
		t.Error("id1 and id3 should survive")
	}
	if infos := s.List(); len(infos) != 2 {
		t.Errorf("List returned %d entries, want 2", len(infos))
	}
	if st := s.c.Stats(); st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("store cache = %+v, want 3 decodes and 1 eviction", st)
	}
}

// TestConcurrentPutsDecodeOnce: N concurrent PUT /datasets/{id} of one bundle
// all answer 200 and the worker decodes the bundle once.
func TestConcurrentPutsDecodeOnce(t *testing.T) {
	node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	w := NewWorker(node)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	raw := make([][]string, 20000)
	for i := range raw {
		raw[i] = []string{"a", "b", "c", "a", "b"}
	}
	db, err := seqdb.Build(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, id, err := EncodeBundle(db)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	status := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPut, srv.URL+"/datasets/"+id, bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
	}
	close(start)
	wg.Wait()
	close(status)
	for code := range status {
		if code != http.StatusOK {
			t.Errorf("PUT: status %d, want 200", code)
		}
	}
	if st := w.Store.c.Stats(); st.Misses != 1 || st.Hits+st.SharedIn != n-1 || st.Size != 1 {
		t.Errorf("store cache = %+v, want one decode shared by %d PUTs", st, n)
	}
}

// TestBundleCacheEncodesOnce: a resubmitted database is encoded once, and
// however many live databases are submitted the cache holds at most
// maxBundleCache bundles.
func TestBundleCacheEncodesOnce(t *testing.T) {
	ctx := context.Background()
	db := testDB(t)
	before := bundleCache.Stats()
	d1, id1, err := bundleFor(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	d2, id2, err := bundleFor(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if st := bundleCache.Stats(); st.Misses != before.Misses+1 || st.Hits != before.Hits+1 {
		t.Errorf("bundle cache %+v after %+v, want one encode and one hit", st, before)
	}
	if id1 != id2 || &d1[0] != &d2[0] {
		t.Error("the resubmission did not get the cached bundle")
	}

	dbs := make([]*seqdb.Database, 2*maxBundleCache)
	for i := range dbs {
		dbs[i] = testDB(t)
		if _, _, err := bundleFor(ctx, dbs[i]); err != nil {
			t.Fatal(err)
		}
		if size := bundleCache.Stats().Size; size > maxBundleCache {
			t.Fatalf("bundle cache holds %d bundles, want at most %d", size, maxBundleCache)
		}
	}
	if st := bundleCache.Stats(); st.Size != maxBundleCache {
		t.Errorf("bundle cache holds %d bundles of %d live databases, want %d", st.Size, len(dbs), maxBundleCache)
	}
	runtime.KeepAlive(dbs)
}

// TestBundleCacheDropsReleasedDatabase: once the program drops a database,
// the GC cleanup removes its bundle.
func TestBundleCacheDropsReleasedDatabase(t *testing.T) {
	key := func() weak.Pointer[seqdb.Database] {
		db := testDB(t)
		if _, _, err := bundleFor(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		return weak.Make(db)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if _, ok := bundleCache.Lookup(key); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the bundle of a released database is still cached")
		}
	}
}
