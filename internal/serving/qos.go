package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"patchindex/internal/obs"
)

// DefaultTenant is the tenant sessions belong to until they identify
// themselves (hello `tenant` field or `\set tenant`). It is also the shared
// pool every tenant id missing from the configured tenants lands in.
const DefaultTenant = "default"

// ErrTenantBusy is returned by Admit when a tenant is at its in-flight cap.
var ErrTenantBusy = errors.New("tenant in-flight limit reached")

// TenantLimits configures one tenant (or the shared default pool).
type TenantLimits struct {
	// MaxInFlight caps this tenant's concurrently executing queries
	// (0 = unlimited; the server's worker pool still applies).
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// ValidateTenantID accepts ids of 1–64 characters from [A-Za-z0-9_-], so
// per-tenant metric names (`tenant.<id>.shed`) stay unambiguous for the
// dot-separated alert-rule globs.
func ValidateTenantID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("bad tenant %q", id)
	}
	for _, c := range id {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return fmt.Errorf("bad tenant %q: use letters, digits, '_', '-'", id)
		}
	}
	return nil
}

// ParseTenants decodes a tenants document: a JSON object mapping tenant id
// to TenantLimits. It is strict — unknown fields, invalid ids, negative
// caps and trailing data are errors — so a misspelled limit fails at
// startup instead of silently admitting without it.
func ParseTenants(data []byte) (map[string]TenantLimits, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var tenants map[string]TenantLimits
	if err := dec.Decode(&tenants); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("tenants: trailing data after the JSON object")
	}
	for id, l := range tenants {
		if err := ValidateTenantID(id); err != nil {
			return nil, fmt.Errorf("tenants: %w", err)
		}
		if l.MaxInFlight < 0 {
			return nil, fmt.Errorf("tenants: %s: negative max_in_flight %d", id, l.MaxInFlight)
		}
	}
	return tenants, nil
}

// QoS caps each tenant's in-flight queries. The tenant set is fixed at
// construction: every configured tenant gets its own state, and every
// other id shares the DefaultTenant state, capped by the defaults. Wire
// input therefore cannot grow the state or the metrics registry. Each
// state registers `tenant.<id>.shed` / `tenant.<id>.in_flight` /
// `tenant.<id>.admitted`, which ride the registry's auto-mirroring into
// /metrics, /stats and the time-series sampler. A nil *QoS admits
// everything, so the server needs no "is QoS on" checks.
type QoS struct {
	tenants map[string]*tenantState // read-only after NewQoS
}

type tenantState struct {
	limits TenantLimits

	mu       sync.Mutex
	inFlight int

	mShed     *obs.Counter
	mAdmitted *obs.Counter
	gInFlight *obs.Gauge
}

// NewQoS creates a QoS policy. defaults caps the shared pool of tenants not
// listed in overrides; reg may be nil (private registry).
func NewQoS(defaults TenantLimits, overrides map[string]TenantLimits, reg *obs.Registry) *QoS {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	q := &QoS{tenants: make(map[string]*tenantState, len(overrides)+1)}
	add := func(tenant string, l TenantLimits) {
		q.tenants[tenant] = &tenantState{
			limits:    l,
			mShed:     reg.Counter(fmt.Sprintf("tenant.%s.shed", tenant)),
			mAdmitted: reg.Counter(fmt.Sprintf("tenant.%s.admitted", tenant)),
			gInFlight: reg.Gauge(fmt.Sprintf("tenant.%s.in_flight", tenant)),
		}
	}
	add(DefaultTenant, defaults)
	for t, l := range overrides {
		add(t, l)
	}
	return q
}

// state returns the tenant's own state, or the shared default pool's.
func (q *QoS) state(tenant string) *tenantState {
	if ts, ok := q.tenants[tenant]; ok {
		return ts
	}
	return q.tenants[DefaultTenant]
}

// Admit charges one query against the tenant's in-flight cap. On success
// it returns a release func the caller must invoke when the query
// finishes. At the cap it returns ErrTenantBusy and counts a shed. Admit
// on a nil QoS always succeeds.
func (q *QoS) Admit(tenant string) (func(), error) {
	if q == nil {
		return func() {}, nil
	}
	ts := q.state(tenant)
	ts.mu.Lock()
	if ts.limits.MaxInFlight > 0 && ts.inFlight >= ts.limits.MaxInFlight {
		ts.mu.Unlock()
		ts.mShed.Inc()
		return nil, ErrTenantBusy
	}
	ts.inFlight++
	ts.mu.Unlock()
	ts.mAdmitted.Inc()
	ts.gInFlight.Add(1)
	release := func() {
		ts.mu.Lock()
		ts.inFlight--
		ts.mu.Unlock()
		ts.gInFlight.Add(-1)
	}
	return release, nil
}

// Shed records a queue-level shed (global admission queue overflow)
// against the tenant, so `tenant.<id>.shed` covers both QoS and queue
// rejections.
func (q *QoS) Shed(tenant string) {
	if q == nil {
		return
	}
	q.state(tenant).mShed.Inc()
}

// TenantSnapshot is one tenant's /stats QoS row.
type TenantSnapshot struct {
	Tenant   string       `json:"tenant"`
	Limits   TenantLimits `json:"limits"`
	InFlight int          `json:"in_flight"`
	Admitted int64        `json:"admitted"`
	Shed     int64        `json:"shed"`
}

// Snapshot returns the state of every configured tenant and the default
// pool, sorted by name.
func (q *QoS) Snapshot() []TenantSnapshot {
	if q == nil {
		return nil
	}
	out := make([]TenantSnapshot, 0, len(q.tenants))
	for t, ts := range q.tenants {
		ts.mu.Lock()
		inFlight := ts.inFlight
		ts.mu.Unlock()
		out = append(out, TenantSnapshot{
			Tenant:   t,
			Limits:   ts.limits,
			InFlight: inFlight,
			Admitted: ts.mAdmitted.Value(),
			Shed:     ts.mShed.Value(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
