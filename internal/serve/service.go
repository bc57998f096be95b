package serve

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cleo/internal/engine"
	"cleo/internal/exec"
	"cleo/internal/obs"
	"cleo/internal/persist"
)

// Config configures a Service.
type Config struct {
	// SeedOf derives the simulated-cluster seed for a new tenant's System
	// (default: FNV-1a of the tenant name, so distinct tenants get
	// distinct hidden hardware/data factors).
	SeedOf func(name string) uint64
	// NewSystem, when non-nil, fully overrides System construction for
	// new tenants (takes precedence over SeedOf).
	NewSystem func(name string) *engine.System
	// RetrainThreshold is the number of new telemetry records since the
	// last published version that triggers a background retrain; 0
	// disables the background loop (explicit Retrain still works).
	RetrainThreshold int
	// IngestBuffer is the per-tenant telemetry channel capacity in
	// batches (default 128).
	IngestBuffer int
	// Parallelism bounds each tenant's optimizer search parallelism
	// (cascades worker-pool width). The serving default is 1 — the service
	// already parallelizes across concurrent requests, and per-request
	// pools of GOMAXPROCS width would oversubscribe the machine by the
	// in-flight request count; raise it deliberately for tenants whose
	// single-query latency matters more than aggregate throughput.
	// Ignored when NewSystem overrides construction — configure the
	// System directly there.
	Parallelism int
	// TemplateCacheSize bounds each tenant's recurring-job memo-template
	// cache (0 = default capacity, negative disables; see
	// engine.SystemConfig.TemplateCacheSize). Recurring instances of the
	// same logical plan reuse the explored memo and re-run only costing,
	// with hits/misses surfaced per tenant in /v1/stats. Ignored when
	// NewSystem overrides construction.
	TemplateCacheSize int
	// StreamingExec runs every tenant's queries on the in-process
	// streaming vectorized executor instead of the simulated cluster, so
	// telemetry (and thus retrained models) reflects measured wall-clock
	// operator times. Ignored when NewSystem overrides construction.
	StreamingExec bool
	// ExecWorkers caps the streaming executor's per-stage pipeline width
	// (exchange fan-out and morsel-scan instances) for every tenant.
	// 0 follows Parallelism — one knob then governs search and execution
	// width together; set it to give queries intra-query parallelism
	// without widening optimizer search (or vice versa). Meaningful only
	// with StreamingExec; ignored when NewSystem overrides construction.
	ExecWorkers int
	// Coalesce collapses identical in-flight optimize-mode requests into
	// one search per tenant: concurrent duplicates (same plan signature,
	// params, model version, stats epoch) wait for the first request's
	// optimization and share its bit-identical result. Runs and traced
	// requests never coalesce. Counted per tenant in /v1/stats
	// (coalesced / coalesce_leaders) and in cleo_cluster_coalesced_total.
	Coalesce bool
	// StateDir, when set, makes tenant state durable: published model
	// versions are snapshotted there and ingested telemetry is journaled
	// before it reaches the in-memory log, and NewService recovers every
	// tenant found under the directory — latest model version live (same
	// id), pending telemetry replayed — so a restarted server serves
	// learned-cost plans on its first request. Empty disables persistence.
	StateDir string
	// Fsync syncs the telemetry journal on every append (model snapshots
	// and the table-statistics log always sync). Off by default:
	// journal-tail durability is traded for ingestion throughput, exactly
	// like a database WAL without fsync.
	Fsync bool
	// RetainSnapshots caps the snapshots kept per tenant (0 = keep all).
	RetainSnapshots int
	// Logf receives persistence warnings and recovery notices rendered as
	// plain lines — the legacy printf-style hook, kept so existing callers
	// and tests work unchanged. Ignored when Logger is set.
	Logf func(format string, args ...any)
	// Logger is the service's structured logger. Every record carries the
	// tenant (and, on request paths, route and trace id) as attributes.
	// Defaults to Logf bridged into slog, else slog.Default().
	Logger *slog.Logger
	// Metrics, when non-nil, turns on the observability layer: HTTP
	// middleware, per-tenant derived gauges, and the engine / persistence
	// instruments all register here, and NewHandler mounts GET /metrics.
	// One registry is shared across tenants (metrics aggregate; per-tenant
	// series carry a tenant label).
	Metrics *obs.Registry
	// SlowQuery, when positive, logs any /v1/query request slower than the
	// threshold at Warn level with tenant, mode, duration and trace id.
	SlowQuery time.Duration
}

// sessionShards sizes the sharded session map; tenants hash across shards
// so lookups under concurrent traffic do not serialize on one lock.
const sessionShards = 16

type tenantShard struct {
	mu sync.RWMutex
	m  map[string]*Tenant
}

// Service is the multi-tenant optimizer service: a sharded session map of
// named Tenants, each a System plus model registry plus ingestion
// pipeline. All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	log     *slog.Logger
	obs     *serviceObs      // nil without Config.Metrics
	persist *persist.Manager // nil without a state directory
	shards  [sessionShards]tenantShard

	// onPublish is the cluster layer's replication hook, fired after every
	// locally trained publish; clusterInfo augments the /v1/stats response
	// with cluster state. Both are registered after construction
	// (OnPublish / SetClusterInfo) and read atomically on hot paths.
	onPublish   atomic.Pointer[func(*Tenant, *ModelVersion)]
	clusterInfo atomic.Pointer[func() any]

	closeOnce sync.Once
}

// OnPublish registers fn to run after every locally trained model publish
// (replica installs do not re-fire it). The cluster layer uses this as its
// replication trigger; fn must not block — publish runs on the retraining
// path.
func (s *Service) OnPublish(fn func(t *Tenant, v *ModelVersion)) {
	s.onPublish.Store(&fn)
}

// SetClusterInfo registers a provider of cluster-level state; when set,
// the all-tenants /v1/stats response wraps the tenant array together with
// this value.
func (s *Service) SetClusterInfo(fn func() any) {
	s.clusterInfo.Store(&fn)
}

// notifyPublish is handed to every tenant as its publish callback; it
// forwards to whatever hook is currently registered.
func (s *Service) notifyPublish(t *Tenant, v *ModelVersion) {
	if fn := s.onPublish.Load(); fn != nil {
		(*fn)(t, v)
	}
}

// NewService builds a Service. With Config.StateDir set it also runs
// crash recovery: every tenant with state on disk is brought up warm
// before the first request can reach it.
func NewService(cfg Config) *Service {
	s := &Service{cfg: cfg, log: resolveLogger(cfg), obs: newServiceObs(cfg.Metrics)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*Tenant)
	}
	if cfg.StateDir != "" {
		mgr, err := persist.NewManager(persist.Config{
			Dir:     cfg.StateDir,
			Fsync:   cfg.Fsync,
			Retain:  cfg.RetainSnapshots,
			Logf:    s.warnf,
			Metrics: cfg.Metrics,
		})
		if err != nil {
			// Degrade, never crash: the service still serves, just cold.
			s.log.Warn("serve: persistence disabled", "err", err)
		} else {
			s.persist = mgr
			s.recoverTenants()
		}
	}
	return s
}

// warnf adapts the persist layer's printf-style warning hook onto the
// service's structured logger.
func (s *Service) warnf(format string, args ...any) {
	s.log.Warn(fmt.Sprintf(format, args...))
}

// recoverTenants warms up every tenant with durable state: Tenant()
// attaches the on-disk state during construction, which restores the
// latest snapshot and replays the journal.
func (s *Service) recoverTenants() {
	names, err := s.persist.TenantNames()
	if err != nil {
		s.log.Warn("serve: enumerating tenant state", "err", err)
		return
	}
	for _, name := range names {
		s.Tenant(name)
	}
}

// PersistEnabled reports whether the service runs with a state directory.
func (s *Service) PersistEnabled() bool { return s.persist != nil }

// shard picks the session shard by an inline FNV-1a over the name (no
// allocation on the per-request lookup path).
func (s *Service) shard(name string) *tenantShard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &s.shards[h%sessionShards]
}

// Tenant returns the named tenant, creating it on first use.
func (s *Service) Tenant(name string) *Tenant {
	sh := s.shard(name)
	sh.mu.RLock()
	t := sh.m[name]
	sh.mu.RUnlock()
	if t != nil {
		return t
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t := sh.m[name]; t != nil {
		return t
	}
	// Opening durable state (and recovering from it, inside newTenant)
	// does disk I/O under the shard lock. That is deliberate: creation
	// must be atomic per name, startup recovery already warms every
	// on-disk tenant before traffic arrives, so a first-touch creation
	// here only ever touches an empty state directory (mkdir + empty
	// journal) — there is no large journal to scan while others wait.
	var state *persist.TenantState
	if s.persist != nil {
		var err error
		if state, err = s.persist.Tenant(name); err != nil {
			// The tenant still serves, just without durability.
			s.log.Warn("serve: tenant persistence disabled", "tenant", name, "err", err)
			state = nil
		}
	}
	t = newTenant(name, s.newSystem(name), s.cfg.RetrainThreshold, s.cfg.IngestBuffer,
		state, s.log, s.obs, s.cfg.Coalesce, s.notifyPublish)
	s.obs.registerTenantGauges(t)
	sh.m[name] = t
	return t
}

func (s *Service) newSystem(name string) *engine.System {
	if s.cfg.NewSystem != nil {
		return s.cfg.NewSystem(name)
	}
	seedOf := s.cfg.SeedOf
	if seedOf == nil {
		seedOf = func(name string) uint64 {
			h := fnv.New64a()
			h.Write([]byte(name))
			return h.Sum64()
		}
	}
	par := s.cfg.Parallelism
	if par <= 0 {
		par = 1 // request-level concurrency is the serving default
	}
	sysCfg := engine.SystemConfig{
		Seed:              seedOf(name),
		Parallelism:       par,
		TemplateCacheSize: s.cfg.TemplateCacheSize,
		StreamingExec:     s.cfg.StreamingExec,
		Metrics:           s.cfg.Metrics,
	}
	if s.cfg.ExecWorkers > 0 {
		sysCfg.Stream = &exec.StreamConfig{MaxWorkers: s.cfg.ExecWorkers}
	}
	return engine.NewSystem(sysCfg)
}

// Lookup returns the named tenant without creating it.
func (s *Service) Lookup(name string) (*Tenant, bool) {
	sh := s.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, ok := sh.m[name]
	return t, ok
}

// TenantNames lists the live tenants, sorted.
func (s *Service) TenantNames() []string {
	var names []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.m {
			names = append(names, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Stats snapshots every tenant's serving counters, sorted by tenant name.
func (s *Service) Stats() []TenantStats {
	names := s.TenantNames()
	out := make([]TenantStats, 0, len(names))
	for _, name := range names {
		if t, ok := s.Lookup(name); ok {
			out = append(out, t.Stats())
		}
	}
	return out
}

// Close drains every tenant's ingestion pipeline and waits for in-flight
// background retrains. The service must not be used afterwards.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			for _, t := range sh.m {
				t.close()
			}
			sh.mu.Unlock()
		}
	})
}
