// Package persist is the serving layer's durable-state subsystem: a
// versioned model snapshot store, an append-only telemetry journal and a
// table-statistics catalog per tenant, under one state directory. The
// serving layer writes snapshots on every model publish, journals every
// ingested telemetry batch before it reaches the in-memory log, and logs
// every change to the table catalog; on restart it reloads each tenant's
// table statistics and latest snapshot (preserving version ids) and
// replays the journal, so a restarted server plans with its learned
// models on the first request instead of retraining first.
//
// Layout under the state directory:
//
//	<state-dir>/
//	  <tenant>/                    one directory per tenant (encoded name)
//	    journal.wal                not-yet-trained telemetry (framed WAL)
//	    tables.json                table statistics, compacted base
//	    tables.wal                 table-statistics deltas since the base (framed WAL)
//	    v00000001.model.json       serialized predictor of version 1
//	    v00000001.manifest.json    its metadata (commit marker)
//	    v00000002.model.json       ...
//
// All corruption degrades, never crashes: a torn journal or table-log tail
// is truncated to the last complete frame, an unreadable snapshot falls back
// to the next older one, and a tenant with nothing readable simply cold
// starts. Every skip is reported through the configured warn logger.
package persist

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cleo/internal/learned"
	"cleo/internal/obs"
	"cleo/internal/stats"
	"cleo/internal/telemetry"
)

// ErrStale is returned by TenantState.SaveSnapshot when a newer version
// has already been snapshotted — the caller must not truncate the journal
// for the stale version.
var ErrStale = errors.New("persist: snapshot superseded by a newer version")

// Config configures a Manager.
type Config struct {
	// Dir is the state directory root (created if absent).
	Dir string
	// Fsync syncs the journal on every append. Off, durability of the
	// journal tail is left to the OS page cache (snapshots and the
	// table-statistics log always sync).
	Fsync bool
	// Retain caps the number of snapshots kept per tenant (0 = keep all).
	Retain int
	// Logf receives corruption warnings and recovery notices
	// (default log.Printf).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, records snapshot-write, journal-append and
	// fsync latencies into instruments registered here.
	Metrics *obs.Registry
}

// Manager owns one state directory and hands out per-tenant states.
type Manager struct {
	cfg     Config
	logf    func(format string, args ...any)
	metrics *metrics // nil without Config.Metrics
}

// NewManager creates the state directory (if needed) and returns a
// Manager rooted there.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("persist: empty state directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	return &Manager{cfg: cfg, logf: logf, metrics: newMetrics(cfg.Metrics)}, nil
}

// tenantDirName encodes a tenant name as a safe directory name. Names in
// the conservative charset pass through unchanged; anything else (path
// separators, dots-only names, the encoding prefix itself) is hex-encoded
// behind an "enc-" marker so it round-trips without ever escaping the
// state directory.
func tenantDirName(name string) string {
	safe := name != "" && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "enc-")
	if safe {
		for i := 0; i < len(name); i++ {
			c := name[i]
			if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
				c == '-' || c == '_' || c == '.') {
				safe = false
				break
			}
		}
	}
	if safe {
		return name
	}
	return "enc-" + hex.EncodeToString([]byte(name))
}

// tenantNameFromDir reverses tenantDirName.
func tenantNameFromDir(dir string) (string, bool) {
	if enc, ok := strings.CutPrefix(dir, "enc-"); ok {
		b, err := hex.DecodeString(enc)
		if err != nil {
			return "", false
		}
		return string(b), true
	}
	return dir, true
}

// TenantNames lists the tenants with state on disk, sorted.
func (m *Manager) TenantNames() ([]string, error) {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, ok := tenantNameFromDir(e.Name())
		if !ok {
			m.logf("persist: skipping unrecognized state directory %q", e.Name())
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Tenant opens (creating if absent) the named tenant's durable state,
// running journal and table-log torn-tail recovery as part of the open.
func (m *Manager) Tenant(name string) (*TenantState, error) {
	dir := filepath.Join(m.cfg.Dir, tenantDirName(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, rec, err := OpenJournal(filepath.Join(dir, journalName), m.cfg.Fsync)
	if err != nil {
		return nil, err
	}
	if rec.DroppedBytes > 0 {
		m.logf("persist: tenant %q: journal recovery dropped %d-byte torn tail (%s); kept %d records",
			name, rec.DroppedBytes, rec.Reason, len(rec.Records))
	}
	ts := &TenantState{
		name:    name,
		dir:     dir,
		retain:  m.cfg.Retain,
		logf:    m.logf,
		journal: j,
		replay:  rec.Records,
		metrics: m.metrics,
	}
	if m.metrics != nil {
		j.fsyncSeconds = m.metrics.fsyncSeconds
	}
	ts.droppedBytes.Store(rec.DroppedBytes)
	if err := ts.openTables(); err != nil {
		j.Close()
		return nil, err
	}
	return ts, nil
}

// TenantState is one tenant's durable state: its snapshot directory and
// telemetry journal, plus persistence counters for /v1/stats.
type TenantState struct {
	name    string
	dir     string
	retain  int
	logf    func(format string, args ...any)
	journal *Journal
	metrics *metrics // nil without observability

	mu       sync.Mutex // serializes snapshot writes; guards lastSnap
	lastSnap int64

	// Table statistics (tables.go). tablesMu serializes every table
	// write and guards the fields below it.
	tablesMu      sync.Mutex
	tablesLog     *os.File                    // tables.wal; nil once closed
	tablesLogSize int64                       // bytes of complete frames in tablesLog
	tablesLogged  int                         // table entries across those frames
	tables        map[string]stats.TableStats // durable catalog: tables.json overlaid with tables.wal
	tablesBehind  bool                        // tables holds a delta no frame recorded

	replayMu sync.Mutex
	replay   []telemetry.Record

	snapshots        atomic.Uint64
	snapshotErrors   atomic.Uint64
	journalAppends   atomic.Uint64
	journalErrors    atomic.Uint64
	tableSaves       atomic.Uint64
	tableErrors      atomic.Uint64
	droppedBytes     atomic.Int64
	recoveredVersion atomic.Int64
	recoveredRecords atomic.Int64
}

// Replay hands over the journal records recovered at open (once).
func (ts *TenantState) Replay() []telemetry.Record {
	ts.replayMu.Lock()
	defer ts.replayMu.Unlock()
	recs := ts.replay
	ts.replay = nil
	ts.recoveredRecords.Store(int64(len(recs)))
	return recs
}

// AppendJournal durably records one ingested batch. On failure Append
// itself counts the un-journaled records as a gap (the serving flusher
// still appends them to the in-memory log), so later frames keep
// truthful log-index ranges and MarkTrained can never cut records the
// training snapshot did not cover.
func (ts *TenantState) AppendJournal(recs []telemetry.Record) error {
	var t0 time.Time
	if ts.metrics != nil {
		t0 = time.Now()
	}
	if err := ts.journal.Append(recs); err != nil {
		ts.journalErrors.Add(1)
		return err
	}
	if !t0.IsZero() {
		ts.metrics.appendSeconds.Record(time.Since(t0))
	}
	ts.journalAppends.Add(1)
	return nil
}

// MarkTrained cuts journal frames fully covered by the first trained
// records of the tenant's in-process telemetry log.
func (ts *TenantState) MarkTrained(trained int) error {
	return ts.journal.MarkTrained(int64(trained))
}

// SaveSnapshot persists one published version. Writes are serialized and
// monotonic: saving a version at or below the newest already-saved id
// returns ErrStale untouched (the caller skips its journal truncation).
func (ts *TenantState) SaveSnapshot(man Manifest, pr *learned.Predictor) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if man.ID <= ts.lastSnap {
		return ErrStale
	}
	man.SavedAt = time.Now().UTC()
	var t0 time.Time
	if ts.metrics != nil {
		t0 = time.Now()
	}
	if err := writeSnapshot(ts.dir, man, pr); err != nil {
		ts.snapshotErrors.Add(1)
		return err
	}
	if !t0.IsZero() {
		ts.metrics.snapshotSeconds.Record(time.Since(t0))
	}
	ts.lastSnap = man.ID
	ts.snapshots.Add(1)
	pruneSnapshots(ts.dir, ts.retain, ts.logf)
	return nil
}

// ExportSnapshot reads one snapshot's raw artifacts — manifest plus the
// serialized model exactly as it sits on disk — for shipping to a replica.
// The bytes round-trip bit-identically through ImportSnapshot on the
// receiving node.
func (ts *TenantState) ExportSnapshot(id int64) (Manifest, []byte, error) {
	man, err := readManifest(manifestPath(ts.dir, id))
	if err != nil {
		return Manifest{}, nil, err
	}
	model, err := os.ReadFile(modelPath(ts.dir, id))
	if err != nil {
		return Manifest{}, nil, err
	}
	return man, model, nil
}

// ImportSnapshot installs a snapshot received from another node, writing
// the model bytes verbatim (replicas hold bit-identical artifacts) through
// the same atomic temp+fsync+rename path as local snapshots. Monotonicity
// matches SaveSnapshot: importing a version at or below the newest already
// on disk returns ErrStale untouched.
func (ts *TenantState) ImportSnapshot(man Manifest, model []byte) error {
	if man.ID <= 0 {
		return fmt.Errorf("persist: import snapshot: bad id %d", man.ID)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if man.ID <= ts.lastSnap {
		return ErrStale
	}
	if man.SavedAt.IsZero() {
		man.SavedAt = time.Now().UTC()
	}
	var t0 time.Time
	if ts.metrics != nil {
		t0 = time.Now()
	}
	if err := writeFileAtomic(modelPath(ts.dir, man.ID), func(w io.Writer) error {
		_, err := w.Write(model)
		return err
	}); err != nil {
		ts.snapshotErrors.Add(1)
		return fmt.Errorf("persist: import model v%d: %w", man.ID, err)
	}
	if err := writeFileAtomic(manifestPath(ts.dir, man.ID), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&man)
	}); err != nil {
		ts.snapshotErrors.Add(1)
		return fmt.Errorf("persist: import manifest v%d: %w", man.ID, err)
	}
	if !t0.IsZero() {
		ts.metrics.snapshotSeconds.Record(time.Since(t0))
	}
	ts.lastSnap = man.ID
	ts.snapshots.Add(1)
	pruneSnapshots(ts.dir, ts.retain, ts.logf)
	return nil
}

// LoadLatest returns the newest loadable snapshot, skipping corrupt ones.
func (ts *TenantState) LoadLatest() (Manifest, *learned.Predictor, bool) {
	man, pr, ok := loadLatest(ts.dir, ts.logf)
	if ok {
		ts.noteLoaded(man.ID)
	}
	return man, pr, ok
}

// LoadModel loads one snapshot's predictor by id — for callers that have
// already enumerated Manifests and want to walk them without re-listing.
func (ts *TenantState) LoadModel(id int64) (*learned.Predictor, error) {
	pr, err := learned.LoadFile(modelPath(ts.dir, id))
	if err != nil {
		return nil, err
	}
	ts.noteLoaded(id)
	return pr, nil
}

// noteLoaded keeps the stale-write cursor at or above a restored id, so
// a post-recovery snapshot can never regress what is already on disk.
func (ts *TenantState) noteLoaded(id int64) {
	ts.mu.Lock()
	if id > ts.lastSnap {
		ts.lastSnap = id
	}
	ts.mu.Unlock()
}

// Manifests lists every readable snapshot manifest, oldest first.
func (ts *TenantState) Manifests() []Manifest {
	return listManifests(ts.dir, ts.logf)
}

// NoteRecoveredVersion records the version id restored at startup for the
// stats counters.
func (ts *TenantState) NoteRecoveredVersion(id int64) {
	ts.recoveredVersion.Store(id)
}

// Stats snapshots one tenant's persistence counters.
type Stats struct {
	// Snapshots / SnapshotErrors count model snapshot writes this process.
	Snapshots      uint64 `json:"snapshots"`
	SnapshotErrors uint64 `json:"snapshot_errors,omitempty"`
	// JournalAppends / JournalErrors count journaled telemetry batches.
	JournalAppends uint64 `json:"journal_appends"`
	JournalErrors  uint64 `json:"journal_errors,omitempty"`
	// TableSaves counts table-statistics deltas made durable this process,
	// one per fsynced frame of tables.wal; TableErrors counts failed frame
	// writes and compactions.
	TableSaves  uint64 `json:"table_saves,omitempty"`
	TableErrors uint64 `json:"table_errors,omitempty"`
	// JournalRecords / JournalBytes describe the journal's current
	// (not-yet-trained) contents.
	JournalRecords int64 `json:"journal_records"`
	JournalBytes   int64 `json:"journal_bytes"`
	// RecoveredVersion / RecoveredRecords describe what startup recovery
	// restored; DroppedBytes is the torn journal tail it discarded.
	RecoveredVersion int64 `json:"recovered_version,omitempty"`
	RecoveredRecords int64 `json:"recovered_records,omitempty"`
	DroppedBytes     int64 `json:"dropped_bytes,omitempty"`
}

// Stats reports the tenant's persistence counters.
func (ts *TenantState) Stats() Stats {
	return Stats{
		Snapshots:        ts.snapshots.Load(),
		SnapshotErrors:   ts.snapshotErrors.Load(),
		JournalAppends:   ts.journalAppends.Load(),
		JournalErrors:    ts.journalErrors.Load(),
		TableSaves:       ts.tableSaves.Load(),
		TableErrors:      ts.tableErrors.Load(),
		JournalRecords:   ts.journal.Records(),
		JournalBytes:     ts.journal.SizeBytes(),
		RecoveredVersion: ts.recoveredVersion.Load(),
		RecoveredRecords: ts.recoveredRecords.Load(),
		DroppedBytes:     ts.droppedBytes.Load(),
	}
}

// Close closes the tenant's journal and table log.
func (ts *TenantState) Close() error {
	err := ts.journal.Close()
	if cerr := ts.closeTables(); err == nil {
		err = cerr
	}
	return err
}
