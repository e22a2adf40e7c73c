package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqmine/internal/datagen"
	"seqmine/internal/experiments"
	"seqmine/internal/paperex"
)

// postMine issues one POST /mine against a test server and returns the
// response (body left open for the caller via t.Cleanup).
func postMine(t *testing.T, url, apiKey string, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/mine", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("X-Api-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestMineShedsOverHTTP holds the only mining slot and checks the HTTP
// contract of a shed query: 429 Too Many Requests, a whole-second Retry-After
// header, a JSON error body — and recovery once the slot frees.
func TestMineShedsOverHTTP(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, QueueDepth: -1})
	if _, err := svc.RegisterDataset("ex", catalogDB(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Occupy the slot as a long-running query would.
	release, err := svc.adm.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	body := `{"dataset":"ex","pattern":"` + paperex.PatternExpression + `","sigma":2}`
	resp := postMine(t, srv.URL, "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a whole number of seconds >= 1", ra)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "overloaded") {
		t.Fatalf("error body = %+v (%v), want an overloaded message", e, err)
	}

	release()
	svc.adm.done(time.Millisecond)
	resp2 := postMine(t, srv.URL, "", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp2.StatusCode)
	}
	if snap := svc.Metrics(); snap.Admission.ShedQueueFull != 1 {
		t.Fatalf("admission stats = %+v, want 1 queue-full shed", snap.Admission)
	}
	// The exposition renders the service's own registry.
	expo, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer expo.Body.Close()
	text, _ := io.ReadAll(expo.Body)
	if !strings.Contains(string(text), `seqmine_admission_shed_total{reason="queue_full"} 1`) {
		t.Errorf("exposition lacks the shed:\n%s", text)
	}
}

// TestOverloadContractOverHTTP drives a service with two mining slots and a
// four-deep queue from 16 closed-loop clients for about a second, with the
// result cache off so every request mines. The service must degrade the
// contract, not the answers: every response is a 200 whose patterns and
// total are byte-identical to the unloaded answer, or a 429 with a
// whole-second Retry-After of at least 1; some request sheds; every shed the
// clients saw is counted; and the registry behind GET /metrics holds the
// queue watermark within its bound and the shedding.
func TestOverloadContractOverHTTP(t *testing.T) {
	const slots, queue, clients = 2, 4, 16
	svc := New(Config{MaxConcurrent: slots, QueueDepth: queue, ResultCacheSize: 0})
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterDataset("nyt", db); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// answer is the part of a /mine body that must not depend on load.
	type answer struct {
		Patterns json.RawMessage `json:"patterns"`
		Total    int             `json:"total"`
	}
	exprs := []string{experiments.N1Expr, experiments.N2Expr, experiments.T2Expr(0, 5)}
	bodies := make([]string, len(exprs))
	unloaded := make([]answer, len(exprs))
	// One kept-alive connection per client: thousands of sheds a second would
	// otherwise each open a socket.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	mine := func(i int) (*http.Response, []byte, error) {
		resp, err := client.Post(srv.URL+"/mine", "application/json", strings.NewReader(bodies[i]))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp, b, err
	}
	for i, expr := range exprs {
		b, _ := json.Marshal(MineRequest{Dataset: "nyt", Pattern: expr, Sigma: 10})
		bodies[i] = string(b)
		resp, body, err := mine(i)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("unloaded %s: %v %v %s", expr, err, resp, body)
		}
		if err := json.Unmarshal(body, &unloaded[i]); err != nil || unloaded[i].Total == 0 {
			t.Fatalf("unloaded %s: total %d (%v); the identity check is vacuous", expr, unloaded[i].Total, err)
		}
	}

	var (
		ok, shed atomic.Int64
		wg       sync.WaitGroup
	)
	deadline := time.Now().Add(time.Second)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := c; time.Now().Before(deadline); n++ {
				i := n % len(exprs)
				resp, body, err := mine(i)
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var got answer
					if err := json.Unmarshal(body, &got); err != nil || got.Total != unloaded[i].Total ||
						!bytes.Equal(got.Patterns, unloaded[i].Patterns) {
						t.Errorf("%s under load: total %d (%v), answer differs from the unloaded one",
							exprs[i], got.Total, err)
						return
					}
					ok.Add(1)
				case http.StatusTooManyRequests:
					ra := resp.Header.Get("Retry-After")
					if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
						t.Errorf("429 with Retry-After %q, want a whole number of seconds >= 1", ra)
						return
					}
					shed.Add(1)
				default:
					t.Errorf("status %d under load: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	answers, sheds := ok.Load(), shed.Load()
	t.Logf("%d answers, %d sheds", answers, sheds)
	if sheds == 0 {
		t.Fatalf("%d answers and no shed: %d clients never overloaded %d slots + %d queue", answers, clients, slots, queue)
	}
	adm := svc.Metrics().Admission
	if adm.ShedQueueFull != sheds || adm.Admitted != answers+int64(len(exprs)) {
		t.Errorf("admission counted %d admitted, %d shed; clients saw %d answers (+%d unloaded), %d sheds",
			adm.Admitted, adm.ShedQueueFull, answers, len(exprs), sheds)
	}

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("GET /metrics?format=prometheus: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	reg := svc.Metrics().Registry
	if got, present := Series(reg, "seqmine_admission_queue_depth_max"); !present || got > queue {
		t.Errorf("seqmine_admission_queue_depth_max = %d (present %v), want <= %d", got, present, queue)
	}
	if got, _ := Series(reg, "seqmine_admission_shed_total", "reason", "queue_full"); got != sheds {
		t.Errorf("seqmine_admission_shed_total{reason=queue_full} = %d, want the %d sheds the clients saw", got, sheds)
	}
}

// TestTenantQuotaShedsOverHTTP charges a tenant to its in-flight quota and
// checks that its next query is shed with 429 while another tenant still
// mines.
func TestTenantQuotaShedsOverHTTP(t *testing.T) {
	auth, err := NewAuthenticator([]APIKey{
		{Key: "k-acme", Tenant: "acme", MaxInFlight: 1},
		{Key: "k-ops", Tenant: "ops"},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{MaxConcurrent: 8, Auth: auth})
	if _, err := svc.RegisterDataset("ex", catalogDB(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	acme := auth.Tenant("acme")
	if !acme.acquire() { // simulate acme's one in-flight query
		t.Fatal("could not charge acme's quota")
	}
	body := `{"dataset":"ex","pattern":"` + paperex.PatternExpression + `","sigma":2}`
	resp := postMine(t, srv.URL, "k-acme", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("acme status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("tenant-quota 429 without Retry-After header")
	}
	// Another tenant is unaffected by acme's quota.
	resp2 := postMine(t, srv.URL, "k-ops", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("ops status = %d, want 200", resp2.StatusCode)
	}
	acme.release()
	resp3 := postMine(t, srv.URL, "k-acme", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("acme post-release status = %d, want 200", resp3.StatusCode)
	}
	if snap := svc.Metrics(); snap.Admission.ShedTenant != 1 {
		t.Fatalf("admission stats = %+v, want 1 tenant shed", snap.Admission)
	}
}
