package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
)

// The authentication plane of the serving tier. Production deployments front
// the daemon with API keys: every key maps to a tenant, and tenants carry
// quotas (concurrent queries in flight, datasets registered). With no keys
// configured the service stays open — every request runs as the anonymous
// admin tenant — so single-user and test deployments need no ceremony.

// ErrUnauthenticated is returned (wrapped) when authentication is required
// but the request carried no valid API key; the HTTP layer maps it to 401.
var ErrUnauthenticated = errors.New("missing or unknown API key")

// APIKey declares one key of the key file: the secret, the tenant it
// authenticates as, and that tenant's quotas. Multiple keys may name the same
// tenant (key rotation); their quotas must agree.
type APIKey struct {
	// Key is the secret presented as "Authorization: Bearer <key>" or in the
	// X-Api-Key request header.
	Key string `json:"key"`
	// Tenant names the principal the key authenticates.
	Tenant string `json:"tenant"`
	// MaxInFlight bounds the tenant's concurrently admitted queries;
	// 0 means no per-tenant bound (the global admission bound still applies).
	MaxInFlight int `json:"max_inflight,omitempty"`
	// MaxDatasets bounds how many datasets the tenant may have registered at
	// once; 0 means unbounded.
	MaxDatasets int `json:"max_datasets,omitempty"`
}

// Tenant is the resolved principal of an authenticated request. The zero
// value (the anonymous tenant) is what unauthenticated deployments run as:
// no quotas, admin rights.
type Tenant struct {
	// Name is the tenant name ("" for the anonymous tenant of deployments
	// without configured keys).
	Name string
	// limits (0 = unbounded).
	maxInFlight int
	maxDatasets int
	// inflight counts the tenant's admitted queries.
	inflight atomic.Int64
}

// acquire takes one in-flight slot, reporting false when the tenant is at its
// quota. A nil tenant (unauthenticated deployment) always admits.
func (t *Tenant) acquire() bool {
	if t == nil {
		return true
	}
	for {
		cur := t.inflight.Load()
		if t.maxInFlight > 0 && cur >= int64(t.maxInFlight) {
			return false
		}
		if t.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (t *Tenant) release() {
	if t != nil {
		t.inflight.Add(-1)
	}
}

// Authenticator resolves API keys to tenants. A nil *Authenticator disables
// authentication (every request resolves to the anonymous tenant).
type Authenticator struct {
	byKey    map[string]*Tenant
	byTenant map[string]*Tenant
}

// NewAuthenticator builds an authenticator from key declarations. Keys and
// tenant names must be non-empty; two keys of the same tenant share one quota
// accounting and must declare identical quotas.
func NewAuthenticator(keys []APIKey) (*Authenticator, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("service: no API keys configured")
	}
	a := &Authenticator{byKey: make(map[string]*Tenant), byTenant: make(map[string]*Tenant)}
	for i, k := range keys {
		if k.Key == "" || k.Tenant == "" {
			return nil, fmt.Errorf("service: API key entry %d: key and tenant must be non-empty", i)
		}
		if k.MaxInFlight < 0 || k.MaxDatasets < 0 {
			return nil, fmt.Errorf("service: API key entry %d (tenant %q): quotas must be >= 0", i, k.Tenant)
		}
		if _, dup := a.byKey[k.Key]; dup {
			return nil, fmt.Errorf("service: API key entry %d: duplicate key", i)
		}
		t := a.byTenant[k.Tenant]
		if t == nil {
			t = &Tenant{Name: k.Tenant, maxInFlight: k.MaxInFlight, maxDatasets: k.MaxDatasets}
			a.byTenant[k.Tenant] = t
		} else if t.maxInFlight != k.MaxInFlight || t.maxDatasets != k.MaxDatasets {
			return nil, fmt.Errorf("service: tenant %q declared with conflicting quotas", k.Tenant)
		}
		a.byKey[k.Key] = t
	}
	return a, nil
}

// LoadAPIKeys reads a key file: a JSON array of APIKey objects, e.g.
//
//	[
//	  {"key": "s3cret", "tenant": "analytics", "max_inflight": 4, "max_datasets": 8},
//	  {"key": "t0ken",  "tenant": "ops"}
//	]
func LoadAPIKeys(path string) ([]APIKey, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys []APIKey
	if err := json.Unmarshal(buf, &keys); err != nil {
		return nil, fmt.Errorf("service: parsing API key file %s: %w", path, err)
	}
	return keys, nil
}

// Enabled reports whether authentication is required.
func (a *Authenticator) Enabled() bool { return a != nil }

// Authenticate resolves the request's API key ("Authorization: Bearer <key>"
// or the X-Api-Key header). With authentication disabled it returns the nil
// (anonymous) tenant.
func (a *Authenticator) Authenticate(r *http.Request) (*Tenant, error) {
	if a == nil {
		return nil, nil
	}
	key := r.Header.Get("X-Api-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
			key = auth[7:]
		}
	}
	if key == "" {
		return nil, fmt.Errorf("%w (send Authorization: Bearer <key> or X-Api-Key)", ErrUnauthenticated)
	}
	t, ok := a.byKey[key]
	if !ok {
		return nil, ErrUnauthenticated
	}
	return t, nil
}

// Tenant returns the named tenant, or nil if unknown (or auth is disabled).
func (a *Authenticator) Tenant(name string) *Tenant {
	if a == nil {
		return nil
	}
	return a.byTenant[name]
}

// tenantCtxKey carries the authenticated tenant through a request context.
type tenantCtxKey struct{}

// WithTenant attaches an authenticated tenant to a context; the service's
// admission control charges the query against the tenant's quotas.
func WithTenant(ctx context.Context, t *Tenant) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, t)
}

// TenantFrom returns the context's tenant (nil for anonymous).
func TenantFrom(ctx context.Context) *Tenant {
	t, _ := ctx.Value(tenantCtxKey{}).(*Tenant)
	return t
}
