package lru

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// model is the reference LRU: a slice of keys from the most to the least
// recently used and their values, with every counter kept by hand.
type model struct {
	capacity int
	keys     []int
	vals     map[int]int
	stats    Stats
	evicted  []int // keys the capacity pushed out, in order
}

func (m *model) index(k int) int { return slices.Index(m.keys, k) }

func (m *model) touch(i int) {
	k := m.keys[i]
	m.keys = append([]int{k}, slices.Delete(m.keys, i, i+1)...)
}

func (m *model) get(k, v int, fail bool) (int, bool, bool) {
	if i := m.index(k); i >= 0 {
		m.touch(i)
		m.stats.Hits++
		return m.vals[k], true, true
	}
	m.stats.Misses++
	if fail {
		return 0, false, false
	}
	m.keys = append([]int{k}, m.keys...)
	m.vals[k] = v
	if len(m.keys) > m.capacity {
		victim := m.keys[len(m.keys)-1]
		m.keys = m.keys[:len(m.keys)-1]
		delete(m.vals, victim)
		m.evicted = append(m.evicted, victim)
		m.stats.Evictions++
	}
	return v, false, true
}

// runModel decodes data into operations on a cache of capacity 1-4 and checks
// every result, the eviction hook and the counters against the model.
func runModel(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	capacity := 1 + int(data[0]%4)
	var evicted []int
	c := New(capacity, func(k, v int) {
		if v%8 != k {
			t.Errorf("hook got value %d for key %d", v, k)
		}
		evicted = append(evicted, k)
	})
	m := &model{capacity: capacity, vals: map[int]int{}, stats: Stats{Capacity: capacity}}
	boom := errors.New("boom")
	for step, b := range data[1:] {
		k := int(b/8) % 6
		v := step*8 + k
		switch op := b % 8; op {
		case 0, 1, 2, 3: // Get; op 3 fails, by an error or (for key 5) a panic
			fail := op == 3
			got, shared, err := c.Get(context.Background(), k, func() (int, error) {
				switch {
				case !fail:
					return v, nil
				case k == 5:
					panic("build panicked")
				}
				return 0, boom
			})
			want, wantShared, ok := m.get(k, v, fail)
			if ok != (err == nil) || got != want || shared != wantShared {
				t.Fatalf("step %d: Get(%d) = %d, %v, %v; want %d, %v, ok %v", step, k, got, shared, err, want, wantShared, ok)
			}
		case 4: // Lookup
			got, ok := c.Lookup(k)
			i := m.index(k)
			if ok != (i >= 0) || (ok && got != m.vals[k]) {
				t.Fatalf("step %d: Lookup(%d) = %d, %v; model has %v", step, k, got, ok, m.keys)
			}
			if ok {
				m.touch(i)
			}
		case 5: // Remove every key of k's residue mod 3
			removed := c.Remove(func(key, _ int) bool { return key%3 == k%3 })
			var want []int
			m.keys = slices.DeleteFunc(m.keys, func(key int) bool {
				if key%3 == k%3 {
					want = append(want, m.vals[key])
					delete(m.vals, key)
					return true
				}
				return false
			})
			slices.Sort(removed)
			slices.Sort(want)
			if !slices.Equal(removed, want) {
				t.Fatalf("step %d: Remove(mod 3 = %d) = %v, want %v", step, k%3, removed, want)
			}
		case 6, 7: // Walk, the whole cache or its k oldest entries
			limit := len(m.keys)
			if op == 7 {
				limit = min(k, limit)
			}
			var got []int
			c.Walk(func(key, val int) bool {
				if val != m.vals[key] {
					t.Fatalf("step %d: Walk saw %d = %d, model %d", step, key, val, m.vals[key])
				}
				got = append(got, key)
				return len(got) < limit
			})
			want := slices.Clone(m.keys)
			slices.Reverse(want)
			if limit == 0 {
				want = want[:min(1, len(want))] // fn runs at least once on a non-empty cache
			} else {
				want = want[:limit]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Walk = %v, want %v", step, got, want)
			}
		}
		st := c.Stats()
		m.stats.Size = len(m.keys)
		if st != m.stats || !slices.Equal(evicted, m.evicted) {
			t.Fatalf("step %d: stats %+v, evicted %v; model %+v, evicted %v", step, st, evicted, m.stats, m.evicted)
		}
	}
}

func TestCacheAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 1+rng.Intn(200))
		rng.Read(data)
		runModel(t, data)
	}
}

func FuzzCacheAgainstModel(f *testing.F) {
	f.Add([]byte{0, 0, 8, 16, 0, 24})
	f.Add([]byte{3, 1, 9, 17, 25, 33, 41, 4, 12, 6, 7, 5, 43, 47})
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, data) })
}

// owner starts a build of key in its own goroutine that blocks until release
// is closed and then returns what result returns, and waits until the build
// is in flight. The channel delivers the owner's Get error.
func owner(t *testing.T, ctx context.Context, c *Cache[string, int], release <-chan struct{}, result func(ctx context.Context) (int, error)) <-chan error {
	t.Helper()
	misses := c.Stats().Misses
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func() (int, error) { <-release; return result(ctx) })
		done <- err
	}()
	await(t, func() bool { return c.Stats().Misses == misses+1 })
	return done
}

func await(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
	}
}

func TestWaiterLeavesOnItsOwnDeadline(t *testing.T) {
	c := New[string, int](4, nil)
	release := make(chan struct{})
	done := owner(t, context.Background(), c, release, func(context.Context) (int, error) { return 7, nil })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, shared, err := c.Get(ctx, "k", nil); !errors.Is(err, context.DeadlineExceeded) || !shared {
		t.Errorf("waiter: shared %v, err %v; want its own deadline", shared, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, shared, err := c.Get(context.Background(), "k", nil); v != 7 || !shared || err != nil {
		t.Errorf("after the owner: %d, %v, %v; want the owner's value", v, shared, err)
	}
}

func TestWaiterOutlivesCancelledOwner(t *testing.T) {
	c := New[string, int](4, nil)
	ownerCtx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	done := owner(t, ownerCtx, c, release, func(ctx context.Context) (int, error) { <-ctx.Done(); return 0, ctx.Err() })

	const waiters = 3
	var builds sync.WaitGroup
	var mu sync.Mutex
	built, got := 0, []int{}
	builds.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer builds.Done()
			v, _, err := c.Get(context.Background(), "k", func() (int, error) {
				mu.Lock()
				built++
				mu.Unlock()
				return 9, nil
			})
			if err != nil {
				t.Errorf("waiter: %v", err)
			}
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		}()
	}
	await(t, func() bool { return c.Stats().SharedIn == waiters })
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: %v, want context.Canceled", err)
	}
	builds.Wait()
	if built != 1 || !reflect.DeepEqual(got, []int{9, 9, 9}) {
		t.Errorf("after the owner's cancellation: %d builds, values %v; want one waiter to build for all", built, got)
	}
	if st := c.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Errorf("stats %+v, want the cancelled owner and one waiter as misses, one entry", st)
	}
}

func TestErrorDeliveredNotCached(t *testing.T) {
	c := New[string, int](4, nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	done := owner(t, context.Background(), c, release, func(context.Context) (int, error) { return 0, boom })
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), "k", nil)
		waiter <- err
	}()
	await(t, func() bool { return c.Stats().SharedIn == 1 })
	close(release)
	if err := <-done; err != boom {
		t.Fatalf("owner: %v", err)
	}
	if err := <-waiter; err != boom {
		t.Errorf("waiter: %v, want the owner's error", err)
	}
	if v, shared, err := c.Get(context.Background(), "k", func() (int, error) { return 3, nil }); v != 3 || shared || err != nil {
		t.Errorf("after the error: %d, %v, %v; want a fresh build", v, shared, err)
	}
}

func TestPanickingBuildResolvesItsFlight(t *testing.T) {
	c := New[string, int](4, nil)
	release := make(chan struct{})
	done := owner(t, context.Background(), c, release, func(context.Context) (int, error) { panic("compiler bug") })
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), "k", nil)
		waiter <- err
	}()
	await(t, func() bool { return c.Stats().SharedIn == 1 })
	close(release)
	for _, ch := range []<-chan error{done, waiter} {
		if err := <-ch; err == nil || !strings.Contains(err.Error(), "compiler bug") {
			t.Errorf("got %v, want the panic as an error", err)
		}
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("a panicked build stored something: %+v", st)
	}
}

func TestNilCacheBuildsEveryTime(t *testing.T) {
	c := New[string, int](0, nil)
	if c != nil {
		t.Fatal("New(0) is not the nil cache")
	}
	release := make(chan struct{})
	var builds sync.WaitGroup
	builds.Add(2)
	for i := 0; i < 2; i++ { // two concurrent Gets of one key share nothing
		go func() {
			if _, shared, err := c.Get(context.Background(), "k", func() (int, error) { builds.Done(); <-release; return 1, nil }); shared || err != nil {
				t.Errorf("nil cache Get: shared %v, err %v", shared, err)
			}
		}()
	}
	builds.Wait()
	close(release)
	if _, ok := c.Lookup("k"); ok || c.Remove(func(string, int) bool { return true }) != nil || c.Stats() != (Stats{}) {
		t.Error("the nil cache holds something")
	}
	c.Walk(func(string, int) bool { t.Error("Walk visited the nil cache"); return true })
}

// TestHitDoesNotAllocate pins the hot path of every cached query: a hit on a
// present key allocates nothing.
func TestHitDoesNotAllocate(t *testing.T) {
	type key struct {
		name string
		n    int64
	}
	c := New[key, []int](8, nil)
	k := key{"dataset", 3}
	build := func() ([]int, error) { return []int{1}, nil }
	c.Get(context.Background(), k, build)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, shared, _ := c.Get(ctx, k, build); !shared {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Errorf("a hit allocates %.1f times, want 0", allocs)
	}
}
