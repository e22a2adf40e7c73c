package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"seqmine/internal/paperex"
	"seqmine/internal/seqdb"
	"seqmine/internal/service"
)

// exampleQuery is the running example's query against the "ex" dataset.
func exampleQuery() service.Query {
	return service.Query{
		Dataset:    "ex",
		Expression: paperex.PatternExpression,
		Sigma:      paperex.Sigma,
	}
}

// TestResultCacheByteIdentical verifies the core cache-correctness property:
// a cached answer is exactly the uncached answer — same patterns, same order,
// same dictionary — observable in per-query and aggregate metrics.
func TestResultCacheByteIdentical(t *testing.T) {
	svc, _ := newTestService(t, service.Config{ResultCacheSize: 16})
	first, err := svc.Mine(context.Background(), exampleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics.ResultCacheHit {
		t.Fatal("first query claims a result-cache hit")
	}
	second, err := svc.Mine(context.Background(), exampleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Metrics.ResultCacheHit {
		t.Fatal("second identical query missed the result cache")
	}
	if !reflect.DeepEqual(first.Patterns, second.Patterns) {
		t.Fatalf("cached patterns differ:\n first %v\nsecond %v", first.Patterns, second.Patterns)
	}
	if first.Dict != second.Dict {
		t.Fatal("cached response carries a different dictionary")
	}
	reg := svc.Metrics().Registry
	hits, _ := service.Series(reg, "seqmine_result_cache_hits_total")
	misses, _ := service.Series(reg, "seqmine_result_cache_misses_total")
	if hits != 1 || misses != 1 {
		t.Fatalf("result cache = %d hits, %d misses; want exactly one of each", hits, misses)
	}
	// A different sigma is a different answer: must not hit.
	q := exampleQuery()
	q.Sigma++
	third, err := svc.Mine(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if third.Metrics.ResultCacheHit {
		t.Fatal("query with different sigma served from the cache")
	}
}

// TestResultCacheInvalidatedOnGenerationBump replaces the dataset under the
// same name and checks the next query mines the new generation instead of
// serving the stale cached answer.
func TestResultCacheInvalidatedOnGenerationBump(t *testing.T) {
	svc, _ := newTestService(t, service.Config{ResultCacheSize: 16})
	first, err := svc.Mine(context.Background(), exampleQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Replace "ex" with a database holding each sequence twice: every
	// frequency doubles, so a stale cached answer is detectable.
	doubled := append(append([][]string{}, paperex.RawDB()...), paperex.RawDB()...)
	db2, err := seqdb.Build(doubled, seqdb.Hierarchy{"a1": {"A"}, "a2": {"A"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterDataset("ex", db2); err != nil {
		t.Fatal(err)
	}
	second, err := svc.Mine(context.Background(), exampleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if second.Metrics.ResultCacheHit {
		t.Fatal("query after generation bump served from the cache")
	}
	// Every original pattern's support doubled (more patterns may newly
	// qualify; a stale cached answer would keep the old frequencies).
	freqs := make(map[string]int64, len(second.Patterns))
	for _, p := range second.Patterns {
		freqs[fmt.Sprint(p.Items)] = p.Freq
	}
	for _, p := range first.Patterns {
		if got := freqs[fmt.Sprint(p.Items)]; got != 2*p.Freq {
			t.Fatalf("pattern %v freq = %d after bump, want doubled %d (stale cache?)", p.Items, got, 2*p.Freq)
		}
	}
}

// TestResultCacheSingleflightThroughService runs identical queries
// concurrently: exactly one may mine (one cache miss), all answers must be
// equal.
func TestResultCacheSingleflightThroughService(t *testing.T) {
	svc, _ := newTestService(t, service.Config{ResultCacheSize: 16})
	const n = 8
	responses := make([]*service.Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Mine(context.Background(), exampleQuery())
			if err != nil {
				panic(err)
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(responses[0].Patterns, responses[i].Patterns) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if misses, _ := service.Series(svc.Metrics().Registry, "seqmine_result_cache_misses_total"); misses != 1 {
		t.Fatalf("result cache misses = %d, want exactly 1 (singleflight)", misses)
	}
}

func newAuthServer(t *testing.T, keys []service.APIKey, cfg service.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	auth, err := service.NewAuthenticator(keys)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Auth = auth
	svc := service.New(cfg)
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, svc
}

// TestAuthRequiredOverHTTP checks the authentication plane: requests without
// a valid key are rejected with 401, the operational endpoints stay open, and
// both key headers work.
func TestAuthRequiredOverHTTP(t *testing.T) {
	srv, svc := newAuthServer(t, []service.APIKey{{Key: "s3cret", Tenant: "acme"}}, service.Config{})
	if _, err := svc.RegisterDataset("ex", exampleDB(t)); err != nil {
		t.Fatal(err)
	}
	mine := service.MineRequest{Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma}

	if resp := doJSON(t, http.MethodPost, srv.URL+"/mine", mine, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: status = %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/datasets", nil)
	req.Header.Set("X-Api-Key", "wrong")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key: status = %d, want 401", resp.StatusCode)
	}
	// Operational plane needs no key.
	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without key: status = %d, want 200", path, r.StatusCode)
		}
	}
	// Both key headers authenticate.
	for _, set := range []func(*http.Request){
		func(r *http.Request) { r.Header.Set("X-Api-Key", "s3cret") },
		func(r *http.Request) { r.Header.Set("Authorization", "Bearer s3cret") },
	} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/datasets", nil)
		set(req)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("authenticated GET /datasets: status = %d, want 200", r.StatusCode)
		}
	}
}

func doJSONWithKey(t *testing.T, method, url, key string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Api-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// TestDatasetQuotaAndOwnershipOverHTTP exercises the dataset quota (429 with
// Retry-After on PUT past MaxDatasets, replacement exempt) and ownership
// (403 deleting another tenant's dataset).
func TestDatasetQuotaAndOwnershipOverHTTP(t *testing.T) {
	srv, _ := newAuthServer(t, []service.APIKey{
		{Key: "k-acme", Tenant: "acme", MaxDatasets: 1},
		{Key: "k-ops", Tenant: "ops"},
	}, service.Config{})
	put := func(key, name string) *http.Response {
		return doJSONWithKey(t, http.MethodPut, srv.URL+"/datasets/"+name, key, service.DatasetRequest{
			Sequences: paperex.RawDB(),
			Hierarchy: map[string][]string{"a1": {"A"}, "a2": {"A"}},
		}, nil)
	}
	if resp := put("k-acme", "first"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first PUT: status = %d, want 200", resp.StatusCode)
	}
	resp := put("k-acme", "second")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("PUT past quota: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After header")
	}
	// Replacing an owned dataset does not consume quota.
	if resp := put("k-acme", "first"); resp.StatusCode != http.StatusOK {
		t.Fatalf("replacement PUT: status = %d, want 200", resp.StatusCode)
	}
	// Another tenant may not delete acme's dataset…
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/datasets/first", nil)
	req.Header.Set("X-Api-Key", "k-ops")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant DELETE: status = %d, want 403", r.StatusCode)
	}
	// …but acme may.
	req2, _ := http.NewRequest(http.MethodDelete, srv.URL+"/datasets/first", nil)
	req2.Header.Set("X-Api-Key", "k-acme")
	r2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNoContent {
		t.Fatalf("own DELETE: status = %d, want 204", r2.StatusCode)
	}
	// Quota freed: acme can register again.
	if resp := put("k-acme", "second"); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT after delete: status = %d, want 200", resp.StatusCode)
	}
}

// TestCatalogSurvivesRestart is the restart acceptance test: a service with a
// catalog registers a dataset, a brand-new service over the same directory
// restores it and serves byte-identical results.
func TestCatalogSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cat1, err := service.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := service.New(service.Config{Catalog: cat1})
	if _, err := svc1.RegisterDataset("ex", exampleDB(t)); err != nil {
		t.Fatal(err)
	}
	first, err := svc1.Mine(context.Background(), exampleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if err := cat1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process opens the same catalog directory.
	cat2, err := service.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	svc2 := service.New(service.Config{Catalog: cat2})
	n, err := svc2.RestoreCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d datasets, want 1", n)
	}
	infos := svc2.Datasets()
	if len(infos) != 1 || infos[0].Name != "ex" {
		t.Fatalf("datasets after restore = %+v", infos)
	}
	second, err := svc2.Mine(context.Background(), exampleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Patterns, second.Patterns) {
		t.Fatalf("post-restart patterns differ:\n before %v\n after %v", first.Patterns, second.Patterns)
	}
	// Removal unpersists: a third open must not resurrect the dataset.
	if ok, err := svc2.RemoveDatasetAs("ex", nil); !ok || err != nil {
		t.Fatalf("RemoveDatasetAs = %v, %v", ok, err)
	}
	cat2.Close()
	cat3, err := service.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat3.Close()
	if entries := cat3.Entries(); len(entries) != 0 {
		t.Fatalf("entries after delete = %+v, want none", entries)
	}
}

// TestCatalogOwnershipRestored checks tenant ownership survives the journal:
// after a restart the restored dataset still belongs to its tenant.
func TestCatalogOwnershipRestored(t *testing.T) {
	dir := t.TempDir()
	auth, err := service.NewAuthenticator([]service.APIKey{{Key: "k", Tenant: "acme", MaxDatasets: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cat1, err := service.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := service.New(service.Config{Catalog: cat1, Auth: auth})
	if _, err := svc1.RegisterDatasetAs("ex", exampleDB(t), auth.Tenant("acme")); err != nil {
		t.Fatal(err)
	}
	cat1.Close()

	cat2, err := service.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	svc2 := service.New(service.Config{Catalog: cat2, Auth: auth})
	if _, err := svc2.RestoreCatalog(); err != nil {
		t.Fatal(err)
	}
	infos := svc2.Datasets()
	if len(infos) != 1 || infos[0].Tenant != "acme" {
		t.Fatalf("restored datasets = %+v, want acme ownership", infos)
	}
}
