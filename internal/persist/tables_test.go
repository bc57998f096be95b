package persist

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cleo/internal/stats"
)

func testTenantState(t *testing.T) *TenantState {
	t.Helper()
	ts, err := openTestTenant(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// openTestTenant opens tenant "ads" under dir, as a restart would.
func openTestTenant(dir string) (*TenantState, error) {
	mgr, err := NewManager(Config{Dir: dir, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	return mgr.Tenant("ads")
}

func TestTablesSaveLoadRoundTrip(t *testing.T) {
	ts := testTenantState(t)
	if tabs, err := ts.LoadTables(); err != nil || tabs != nil {
		t.Fatalf("fresh state LoadTables = %v, %v (want empty, nil)", tabs, err)
	}
	want := map[string]stats.TableStats{
		"clicks_2026_06_12": {Rows: 2e7, RowLength: 120},
		"users":             {Rows: 5e5, RowLength: 64},
	}
	if err := ts.AppendTables(want); err != nil {
		t.Fatal(err)
	}
	// A delta carries only the changed tables; it merges into the
	// catalog, never replaces it.
	delta := map[string]stats.TableStats{
		"impressions": {Rows: 9e6, RowLength: 48},
		"users":       {Rows: 6e5, RowLength: 64},
	}
	if err := ts.AppendTables(delta); err != nil {
		t.Fatal(err)
	}
	maps.Copy(want, delta)
	got, err := ts.LoadTables()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	st := ts.Stats()
	if st.TableSaves != 2 || st.TableErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// SaveTables replaces the durable catalog outright.
	full := map[string]stats.TableStats{"orders": {Rows: 1e6, RowLength: 90}}
	if err := ts.SaveTables(full); err != nil {
		t.Fatal(err)
	}
	if got, err := ts.LoadTables(); err != nil || !reflect.DeepEqual(got, full) {
		t.Fatalf("after SaveTables: got %+v, %v want %+v", got, err, full)
	}
}

func TestTablesCorruptFileDegrades(t *testing.T) {
	ts := testTenantState(t)
	if err := ts.SaveTables(map[string]stats.TableStats{"t": {Rows: 1}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ts.dir, tablesName)
	if err := os.WriteFile(path, []byte(`{"version":1,"tables":{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.LoadTables(); err == nil {
		t.Fatal("corrupt tables.json must surface an error, not silent stats loss")
	}
	// An unsupported schema version is refused too, never misread.
	if err := os.WriteFile(path, []byte(`{"version":2,"tables":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.LoadTables(); err == nil {
		t.Fatal("future tables.json version must be refused")
	}
}

// tableDeltas is a sequence of catalog changes: new tables, and changed
// statistics for tables already registered.
func tableDeltas() []map[string]stats.TableStats {
	return []map[string]stats.TableStats{
		{"clicks_2026_06_12": {Rows: 2e7, RowLength: 120}, "users": {Rows: 5e5, RowLength: 64}},
		{"clicks_2026_06_13": {Rows: 2.1e7, RowLength: 120}},
		{"users": {Rows: 5.5e5, RowLength: 64, PartitionedOn: "id", Partitions: 8}},
		{"lineitem": {Rows: 6e6, RowLength: 140}},
	}
}

// overlay is the catalog the first n deltas describe (nil for none).
func overlay(deltas []map[string]stats.TableStats, n int) map[string]stats.TableStats {
	var out map[string]stats.TableStats
	for _, d := range deltas[:n] {
		if out == nil {
			out = map[string]stats.TableStats{}
		}
		maps.Copy(out, d)
	}
	return out
}

// TestTablesLogTornTailEveryOffset cuts tables.wal at every byte offset:
// recovery keeps every complete frame, drops the torn one, never errors,
// and leaves a clean state that reloads the same catalog.
func TestTablesLogTornTailEveryOffset(t *testing.T) {
	src := testTenantState(t)
	deltas := tableDeltas()
	var ends []int64 // log length after each frame
	for _, d := range deltas {
		if err := src.AppendTables(d); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, src.tablesLogSize)
	}
	if src.tablesLogged == 0 {
		t.Fatal("deltas compacted away; the test needs them in the log")
	}
	log, err := os.ReadFile(filepath.Join(src.dir, tablesLogName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(log)) != ends[len(ends)-1] {
		t.Fatalf("log is %d bytes, frames end at %d", len(log), ends[len(ends)-1])
	}
	for cut := 0; cut <= len(log); cut++ {
		dir := t.TempDir()
		tdir := filepath.Join(dir, "ads")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, tablesLogName), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := openTestTenant(dir)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// The open cut the torn tail and compacted the complete frames
		// into tables.json, leaving an empty log.
		if fi, err := os.Stat(filepath.Join(tdir, tablesLogName)); err != nil || fi.Size() != 0 {
			t.Fatalf("cut %d: log after open: %v, %v", cut, fi, err)
		}
		complete := 0
		for complete < len(ends) && ends[complete] <= int64(cut) {
			complete++
		}
		want := overlay(deltas, complete)
		got, err := ts.LoadTables()
		if err != nil {
			t.Fatalf("cut %d: LoadTables: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d (%d complete frames): got %+v want %+v", cut, complete, got, want)
		}
		ts.Close()
		// The recovered state is clean: reopening changes nothing.
		ts2, err := openTestTenant(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		got2, err := ts2.LoadTables()
		ts2.Close()
		if err != nil || !reflect.DeepEqual(got2, want) {
			t.Fatalf("cut %d: reopen got %+v, %v want %+v", cut, got2, err, want)
		}
	}
}

// TestTablesLegacyBaseLoadsUnchanged: a state directory written before
// the delta log existed — tables.json alone — loads as it is, and the
// open leaves the file untouched.
func TestTablesLegacyBaseLoadsUnchanged(t *testing.T) {
	dir := t.TempDir()
	tdir := filepath.Join(dir, "ads")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`{
  "version": 1,
  "tables": {
    "clicks_2026_06_12": {
      "Rows": 20000000,
      "RowLength": 120,
      "PartitionedOn": "",
      "Partitions": 0
    },
    "orders": {
      "Rows": 1500000,
      "RowLength": 90,
      "PartitionedOn": "o_orderkey",
      "Partitions": 16
    }
  }
}
`)
	path := filepath.Join(tdir, tablesName)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := openTestTenant(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	got, err := ts.LoadTables()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]stats.TableStats{
		"clicks_2026_06_12": {Rows: 2e7, RowLength: 120},
		"orders":            {Rows: 1.5e6, RowLength: 90, PartitionedOn: "o_orderkey", Partitions: 16},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy load: got %+v want %+v", got, want)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, legacy) {
		t.Fatalf("open rewrote the legacy tables.json (err %v)", err)
	}
	// New deltas extend the legacy catalog.
	if err := ts.AppendTables(map[string]stats.TableStats{"users": {Rows: 5e5, RowLength: 64}}); err != nil {
		t.Fatal(err)
	}
	want["users"] = stats.TableStats{Rows: 5e5, RowLength: 64}
	if got, err := ts.LoadTables(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy plus delta: got %+v, %v want %+v", got, err, want)
	}
}

// TestTablesLogCompaction pins the compaction rule: the log never holds
// more than twice as many entries as the catalog has tables after an
// append, compaction leaves the same catalog on disk, and the open
// compacts whatever a previous process logged.
func TestTablesLogCompaction(t *testing.T) {
	dir := t.TempDir()
	ts, err := openTestTenant(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]stats.TableStats{}
	compactions := 0
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("t%d", i%3)
		d := map[string]stats.TableStats{name: {Rows: float64(1000 + i), RowLength: 64}}
		before := ts.tablesLogged
		if err := ts.AppendTables(d); err != nil {
			t.Fatal(err)
		}
		maps.Copy(live, d)
		if ts.tablesLogged < before {
			compactions++
		}
		if ts.tablesLogged > 2*len(live) {
			t.Fatalf("append %d: log holds %d entries for %d tables", i, ts.tablesLogged, len(live))
		}
		got, err := ts.LoadTables()
		if err != nil || !reflect.DeepEqual(got, live) {
			t.Fatalf("append %d: LoadTables = %+v, %v want %+v", i, got, err, live)
		}
	}
	if compactions == 0 {
		t.Fatal("re-registered statistics never triggered a compaction")
	}
	if st := ts.Stats(); st.TableSaves != 40 || st.TableErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if ts.tablesLogged == 0 {
		t.Fatal("want entries left in the log for the reopen below")
	}
	ts.Close()
	if err := ts.AppendTables(map[string]stats.TableStats{"late": {Rows: 1}}); err == nil {
		t.Fatal("append after Close must fail")
	}

	ts2, err := openTestTenant(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if ts2.tablesLogged != 0 || ts2.tablesLogSize != 0 {
		t.Fatalf("open left %d entries (%d bytes) in the log", ts2.tablesLogged, ts2.tablesLogSize)
	}
	if fi, err := os.Stat(filepath.Join(dir, "ads", tablesLogName)); err != nil || fi.Size() != 0 {
		t.Fatalf("log after open-time compaction: %v, %v", fi, err)
	}
	got, err := ts2.LoadTables()
	if err != nil || !reflect.DeepEqual(got, live) {
		t.Fatalf("after reopen: LoadTables = %+v, %v want %+v", got, err, live)
	}
}

// TestExportImportSnapshotRoundTrip pins the replication contract: the
// exported artifacts land on another tenant state bit-identical, load as
// the latest snapshot there, and stale re-imports are refused.
func TestExportImportSnapshotRoundTrip(t *testing.T) {
	src := testTenantState(t)
	pr := trainedPredictor(t)
	if err := src.SaveSnapshot(Manifest{ID: 3, TrainRecords: 120}, pr); err != nil {
		t.Fatal(err)
	}
	man, model, err := src.ExportSnapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	if man.ID != 3 || man.TrainRecords != 120 || len(model) == 0 {
		t.Fatalf("export: %+v, %d model bytes", man, len(model))
	}
	onDisk, err := os.ReadFile(modelPath(src.dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(model, onDisk) {
		t.Fatal("export must return the exact on-disk artifact")
	}

	dst := testTenantState(t)
	if err := dst.ImportSnapshot(man, model); err != nil {
		t.Fatal(err)
	}
	imported, err := os.ReadFile(modelPath(dst.dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imported, model) {
		t.Fatal("imported model bytes differ from the shipped artifact")
	}
	gotMan, gotPr, ok := dst.LoadLatest()
	if !ok || gotMan.ID != 3 || gotMan.TrainRecords != 120 || gotPr == nil {
		t.Fatalf("follower LoadLatest: %+v ok=%v", gotMan, ok)
	}

	// Monotonicity: the same or an older version is stale on re-import.
	if err := dst.ImportSnapshot(man, model); !errors.Is(err, ErrStale) {
		t.Fatalf("re-import err = %v, want ErrStale", err)
	}
	if err := dst.ImportSnapshot(Manifest{ID: 2}, model); !errors.Is(err, ErrStale) {
		t.Fatalf("older import err = %v, want ErrStale", err)
	}
	if err := dst.ImportSnapshot(Manifest{ID: 0}, model); err == nil || errors.Is(err, ErrStale) {
		t.Fatalf("bad id err = %v, want validation error", err)
	}
	// And the local SaveSnapshot path honours imported ids the same way.
	if err := dst.SaveSnapshot(Manifest{ID: 3}, pr); !errors.Is(err, ErrStale) {
		t.Fatalf("local save at imported id err = %v, want ErrStale", err)
	}

	st := dst.Stats()
	if st.Snapshots != 1 {
		t.Fatalf("follower stats: %+v", st)
	}
}

// TestExportSnapshotMissing covers the owner-side error path: exporting a
// version that was never snapshotted fails cleanly.
func TestExportSnapshotMissing(t *testing.T) {
	ts := testTenantState(t)
	if _, _, err := ts.ExportSnapshot(7); err == nil {
		t.Fatal("exporting a missing snapshot must fail")
	}
}
