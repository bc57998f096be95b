package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"

	"cleo/internal/stats"
)

// Durable table statistics: the serving layer registers stored-input
// statistics per tenant (RegisterTable), and without persistence the first
// post-restart request depends on the client re-sending them. The durable
// catalog is tables.json, a compacted base, overlaid with tables.wal, an
// append-only log of deltas in the journal's frame format whose payloads
// are JSON maps of just the tables a registration changed. A request that
// registers one new input therefore writes one small frame, not the whole
// catalog. Recovery (and replica installation) re-registers the overlay
// before traffic arrives.
//
// Every frame is fsynced before AppendTables returns, whatever
// Config.Fsync says: a table delta is rare next to telemetry, and losing
// one would fail later queries outright rather than merely retrain on less.

const (
	tablesName    = "tables.json"
	tablesLogName = "tables.wal"
)

// storedTables is the tables.json schema, versioned like the model store.
type storedTables struct {
	Version int                         `json:"version"`
	Tables  map[string]stats.TableStats `json:"tables"`
}

// openTables opens (creating if absent) the tenant's table-delta log,
// truncates a torn or corrupt tail to the last complete frame, and
// rebuilds the durable catalog from tables.json overlaid with the log.
// When the log held frames and tables.json read cleanly, it compacts them
// into tables.json, so each process starts with an empty log. Only I/O
// errors fail the open; an unreadable tables.json is LoadTables' to
// report.
func (ts *TenantState) openTables() error {
	path := filepath.Join(ts.dir, tablesLogName)
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		return fmt.Errorf("persist: open table log: %w", err)
	}
	if os.IsNotExist(statErr) {
		// The file's directory entry must be durable before any frame
		// in it can count as durable.
		if err := syncDir(ts.dir); err != nil {
			return fail(err)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	deltas, valid, reason, err := scanTablesLog(f, fi.Size())
	if err != nil {
		return fail(err)
	}
	if valid < fi.Size() {
		if err := f.Truncate(valid); err != nil {
			return fail(err)
		}
		ts.logf("persist: tenant %q: table log recovery dropped %d-byte torn tail (%s); kept %d frames",
			ts.name, fi.Size()-valid, reason, len(deltas))
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(err)
	}
	tables, baseErr := readTablesBase(ts.dir)
	if tables == nil {
		tables = map[string]stats.TableStats{}
	}
	logged := 0
	for _, d := range deltas {
		maps.Copy(tables, d)
		logged += len(d)
	}
	ts.tablesLog, ts.tablesLogSize, ts.tablesLogged, ts.tables = f, valid, logged, tables
	if logged > 0 && baseErr == nil {
		if err := ts.compactTablesLocked(); err != nil {
			ts.logf("persist: tenant %q: table log compaction at open failed: %v", ts.name, err)
		}
	}
	return nil
}

// AppendTables durably records a delta of the table-statistics catalog:
// the tables whose registration changed it, with their new statistics.
// The delta becomes one frame of tables.wal, fsynced before AppendTables
// returns. Once the log holds more than twice as many entries as the
// catalog has tables, it is compacted into tables.json; each compaction
// writes O(catalog) bytes after at least that many appended entries, so
// the bytes written stay linear in the entries appended.
//
// A frame that cannot be written is folded into an immediate compaction
// instead, and until one succeeds every later call retries it, so a
// failed write is healed by the next one as with a full rewrite.
// AppendTables reports an error only when the delta is durable nowhere.
func (ts *TenantState) AppendTables(delta map[string]stats.TableStats) error {
	if len(delta) == 0 {
		return nil
	}
	payload, err := json.Marshal(delta)
	if err != nil {
		ts.tableErrors.Add(1)
		return fmt.Errorf("persist: encode tables: %w", err)
	}
	ts.tablesMu.Lock()
	defer ts.tablesMu.Unlock()
	if ts.tablesLog == nil {
		ts.tableErrors.Add(1)
		return errors.New("persist: table log closed")
	}
	maps.Copy(ts.tables, delta)
	if err := ts.appendTablesFrameLocked(payload); err != nil {
		ts.tableErrors.Add(1)
		ts.tablesBehind = true
		ts.logf("persist: tenant %q: table log append failed, compacting instead: %v", ts.name, err)
	} else {
		ts.tablesLogged += len(delta)
		ts.tableSaves.Add(1)
	}
	if ts.tablesBehind || ts.tablesLogged > 2*len(ts.tables) {
		if err := ts.compactTablesLocked(); err != nil {
			ts.tableErrors.Add(1)
			if ts.tablesBehind {
				return fmt.Errorf("persist: write tables: %w", err)
			}
			ts.logf("persist: tenant %q: table log compaction failed: %v", ts.name, err)
		}
	}
	return nil
}

// appendTablesFrameLocked writes and fsyncs one frame. On failure the log
// is cut back to its last frame boundary, so it never keeps a torn middle.
func (ts *TenantState) appendTablesFrameLocked(payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("delta encodes to %d bytes, over the %d frame cap", len(payload), maxFrameBytes)
	}
	header := frameHeader(payload)
	frame := append(header[:], payload...)
	_, err := ts.tablesLog.Write(frame)
	if err == nil {
		err = ts.tablesLog.Sync()
	}
	if err != nil {
		_ = ts.tablesLog.Truncate(ts.tablesLogSize)
		_, _ = ts.tablesLog.Seek(ts.tablesLogSize, io.SeekStart)
		return err
	}
	ts.tablesLogSize += int64(len(frame))
	return nil
}

// SaveTables replaces the durable catalog with tables: it atomically
// rewrites tables.json, then empties tables.wal. It is the compaction
// step, exposed for callers that hold a full catalog.
func (ts *TenantState) SaveTables(tables map[string]stats.TableStats) error {
	ts.tablesMu.Lock()
	defer ts.tablesMu.Unlock()
	if ts.tablesLog == nil {
		ts.tableErrors.Add(1)
		return errors.New("persist: table log closed")
	}
	ts.tables = maps.Clone(tables)
	if ts.tables == nil {
		ts.tables = map[string]stats.TableStats{}
	}
	if err := ts.compactTablesLocked(); err != nil {
		ts.tableErrors.Add(1)
		return fmt.Errorf("persist: write tables: %w", err)
	}
	return nil
}

// compactTablesLocked writes the in-memory catalog to tables.json, then
// truncates the log. In that order, a crash between the two leaves both
// holding the compacted entries, and the overlay reads the same catalog.
// tablesBehind stays set until a compaction completes: a log that still
// holds frames older than an unlogged delta must not outlive it.
func (ts *TenantState) compactTablesLocked() error {
	err := writeFileAtomic(filepath.Join(ts.dir, tablesName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&storedTables{Version: 1, Tables: ts.tables})
	})
	if err != nil {
		return err
	}
	if err := ts.tablesLog.Truncate(0); err != nil {
		return err
	}
	if _, err := ts.tablesLog.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := ts.tablesLog.Sync(); err != nil {
		return err
	}
	ts.tablesLogSize, ts.tablesLogged, ts.tablesBehind = 0, 0, false
	return nil
}

// LoadTables reads the persisted table-statistics catalog: tables.json
// overlaid with every complete frame of tables.wal. Missing files are a
// clean empty result; a corrupt or future-versioned tables.json degrades
// to an error the caller logs (the tenant still serves, statistics just
// arrive with requests again).
func (ts *TenantState) LoadTables() (map[string]stats.TableStats, error) {
	ts.tablesMu.Lock()
	defer ts.tablesMu.Unlock()
	tables, err := readTablesBase(ts.dir)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(ts.dir, tablesLogName))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	deltas, _, _, err := scanTablesLog(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	for _, d := range deltas {
		if tables == nil {
			tables = map[string]stats.TableStats{}
		}
		maps.Copy(tables, d)
	}
	return tables, nil
}

// readTablesBase reads tables.json: nil when absent, an error when it is
// corrupt or of an unsupported version.
func readTablesBase(dir string) (map[string]stats.TableStats, error) {
	b, err := os.ReadFile(filepath.Join(dir, tablesName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var st storedTables
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("persist: decode tables: %w", err)
	}
	if st.Version != 1 {
		return nil, fmt.Errorf("persist: unsupported tables version %d", st.Version)
	}
	return st.Tables, nil
}

// scanTablesLog decodes the complete frames of a total-byte table-delta
// log read from r, oldest first, with the length of that frame prefix and
// why any bytes after it were rejected.
func scanTablesLog(r io.Reader, total int64) (deltas []map[string]stats.TableStats, valid int64, reason string, err error) {
	valid, reason, err = scanFrames(r, total, func(payload []byte) error {
		var d map[string]stats.TableStats
		if err := json.Unmarshal(payload, &d); err != nil {
			return fmt.Errorf("frame decode: %v", err)
		}
		deltas = append(deltas, d)
		return nil
	})
	return deltas, valid, reason, err
}

// closeTables closes the table log; later appends fail. Every frame was
// fsynced when written, so there is nothing left to sync.
func (ts *TenantState) closeTables() error {
	ts.tablesMu.Lock()
	defer ts.tablesMu.Unlock()
	if ts.tablesLog == nil {
		return nil
	}
	err := ts.tablesLog.Close()
	ts.tablesLog = nil
	return err
}
