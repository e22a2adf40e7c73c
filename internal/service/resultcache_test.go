package service

import (
	"context"
	"reflect"
	"testing"

	"seqmine/internal/lru"
	"seqmine/internal/plan"
)

func rkey(expr string) resultKey {
	return resultKey{dataset: "ds", generation: 1, expression: expr, sigma: 2, algorithm: AlgoDSeq}
}

// answer stores an empty answer for k in c (a miss that mines nothing) and
// reports whether it was served without mining.
func answer(c *lru.Cache[resultKey, cachedResult], k resultKey) (hit bool) {
	_, hit, _ = c.Get(context.Background(), k, func() (cachedResult, error) { return cachedResult{}, nil })
	return hit
}

func TestResultCacheNilDisabled(t *testing.T) {
	c := newResultCache(0)
	if c != nil {
		t.Fatalf("newResultCache(0) = %v, want nil", c)
	}
	for i := 0; i < 2; i++ {
		mined := false
		_, shared, err := c.Get(context.Background(), rkey("a"), func() (cachedResult, error) { mined = true; return cachedResult{}, nil })
		if !mined || shared || err != nil {
			t.Fatalf("nil cache Get %d: mined %v, shared %v, err %v; want every query to mine", i, mined, shared, err)
		}
	}
	if s := c.Stats(); s != (lru.Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	for _, expr := range []string{"a", "b", "c"} {
		answer(c, rkey(expr))
	}
	if answer(c, rkey("a")) {
		t.Fatal("oldest entry should have been evicted")
	}
	if s := c.Stats(); s.Evictions == 0 || s.Size != 2 {
		t.Fatalf("stats = %+v, want evictions > 0 and size 2", s)
	}
}

func TestResultCacheInvalidateDataset(t *testing.T) {
	svc := New(Config{ResultCacheSize: 8})
	other := resultKey{dataset: "other", generation: 1, expression: "a", sigma: 2, algorithm: AlgoDSeq}
	for _, k := range []resultKey{rkey("a"), rkey("b"), other} {
		answer(svc.results, k)
	}
	svc.invalidateDataset("ds")
	if answer(svc.results, rkey("a")) {
		t.Fatal("invalidated entry still served")
	}
	if !answer(svc.results, other) {
		t.Fatal("unrelated dataset's entry was dropped")
	}
}

func TestResultKeyDistinguishesParameters(t *testing.T) {
	c := newResultCache(8)
	answer(c, rkey("a"))
	variants := []resultKey{
		{dataset: "ds", generation: 2, expression: "a", sigma: 2, algorithm: AlgoDSeq},
		{dataset: "ds", generation: 1, expression: "a", sigma: 3, algorithm: AlgoDSeq},
		{dataset: "ds", generation: 1, expression: "a", sigma: 2, algorithm: AlgoDCand},
	}
	for _, k := range variants {
		if answer(c, k) {
			t.Fatalf("key %+v hit the cache; generation/sigma/algorithm must partition entries", k)
		}
	}
}

// planFieldsOutsideResultKey lists every field of the query plan that
// resultKey leaves out, with the reason it cannot change a query's answer.
// Algorithm is the one plan field in the key.
var planFieldsOutsideResultKey = map[string]string{
	"Workers":         "parallelism of this process",
	"Shards":          "never read: the two-phase executor it sized is gone",
	"SpillThreshold":  "where the shuffle buffers; the reduce loop sees the same groups",
	"SpillTmpDir":     "a directory",
	"SendBufferBytes": "when the shuffle sends; partial combines merge like batches from different peers",
	"CompressSpill":   "segment encoding on disk",
	"TaskRetries":     "scheduler policy",
}

// TestResultKeyCoversPlan walks plan.Plan by reflection (through the embedded
// Knobs and ShuffleConfig): a field that is neither in resultKey nor on the
// cannot-change-the-answer list fails, so an answer-changing plan field cannot
// be added without the cache key learning it.
func TestResultKeyCoversPlan(t *testing.T) {
	if _, ok := reflect.TypeOf(resultKey{}).FieldByName("algorithm"); !ok {
		t.Error("resultKey no longer carries the plan's algorithm")
	}
	seen := map[string]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case f.Anonymous:
				walk(f.Type)
			case f.Name == "Algorithm": // in the key
			case planFieldsOutsideResultKey[f.Name] == "":
				t.Errorf("plan field %s is neither part of resultKey nor listed as unable to change the answer", f.Name)
			default:
				seen[f.Name] = true
			}
		}
	}
	walk(reflect.TypeOf(plan.Plan{}))
	for name := range planFieldsOutsideResultKey {
		if !seen[name] {
			t.Errorf("stale entry: the plan has no field %s", name)
		}
	}
}
