package vdtn_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vdtn"
)

// TestContactCacheSpeedupArtifact measures the contact cache on a
// multi-series, multi-x experiment — fig5's full 3-series × 5-TTL sweep at
// a scaled horizon — and logs the comparison (go test -v shows it):
//
//   - cached vs uncached sweep wall clock (the PR 1 headline number);
//   - prewarmed vs lazy recording schedule (recording passes run in
//     parallel ahead of the sweep vs on first touch inside it);
//   - cache-dir load time for the binary codec vs the text format on the
//     fig5 fleet's persisted traces;
//   - mmap view open vs binary slurp on the same traces, and the per-cell
//     replay-preparation allocations of both paths.
//
// It asserts the properties the cache promises: the cached and mmap-served
// tables are bit-identical to the uncached one, the cached run is not
// slower, the binary codec loads faster than text, the mmap view opens no
// slower than the binary slurp, and view replay allocates less per cell.
func TestContactCacheSpeedupArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	exp, ok := vdtn.ExperimentByID("fig5")
	if !ok {
		t.Fatal("fig5 missing from catalog")
	}
	opt := vdtn.ExperimentOptions{Seeds: []uint64{1, 2}, Scale: 0.25}
	cells := len(exp.Scenarios) * len(exp.Xs) * len(opt.Seeds)

	start := time.Now()
	plainRes, err := vdtn.RunExperimentE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	uncached := time.Since(start)
	plain := plainRes.DefaultTable()

	// Cached run, persisting the fig5 fleet's traces for the load
	// comparison below.
	ccDir := t.TempDir()
	cache := &vdtn.ContactCache{Dir: ccDir}
	opt.ContactCache = cache
	start = time.Now()
	cachedRes, err := vdtn.RunExperimentE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	cachedDur := time.Since(start)

	if !reflect.DeepEqual(plain.Series, cachedRes.DefaultTable().Series) {
		t.Fatal("cached experiment table diverged from the uncached one")
	}

	// Mmap-served sweep over the persisted traces: bit-identical table,
	// zero re-recordings.
	mmapCache := &vdtn.ContactCache{Dir: ccDir, Mmap: true}
	mopt := opt
	mopt.ContactCache = mmapCache
	mappedRes, err := vdtn.RunExperimentE(exp, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Series, mappedRes.DefaultTable().Series) {
		t.Fatal("mmap-served experiment table diverged from the uncached one")
	}
	if mmapCache.Recorded() != 0 {
		t.Fatalf("mmap sweep re-recorded %d traces despite the persisted cache", mmapCache.Recorded())
	}
	mmapCache.Close()
	speedup := float64(uncached) / float64(cachedDur)
	t.Logf("%d cells: uncached %v, cached %v (%.2fx, %d recording passes)",
		cells, uncached.Round(time.Millisecond), cachedDur.Round(time.Millisecond), speedup, cache.Recorded())
	// Expected speedup is ~4x; the loose bound only catches a genuinely
	// regressed cache, not scheduler noise on shared CI runners.
	if speedup < 0.7 {
		t.Errorf("cached run much slower than uncached: %.2fx", speedup)
	}

	// Lazy vs prewarmed schedule: identical tables, only wall clock moves.
	// Best-of-3 per schedule, so scheduler noise does not drown a ~2 s
	// measurement.
	timedRun := func(lazy bool) (vdtn.ExperimentTable, time.Duration) {
		o := opt
		o.LazyRecord = lazy
		var tbl vdtn.ExperimentTable
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			o.ContactCache = &vdtn.ContactCache{}
			s := time.Now()
			res, err := vdtn.RunExperimentE(exp, o)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(s); d < best {
				best = d
			}
			tbl = res.DefaultTable()
		}
		return tbl, best
	}
	lazyTbl, lazyDur := timedRun(true)
	warmTbl, warmDur := timedRun(false)
	if !reflect.DeepEqual(lazyTbl.Series, warmTbl.Series) {
		t.Fatal("prewarmed table diverged from the lazy one")
	}
	t.Logf("recording schedule: lazy %v, prewarmed %v",
		lazyDur.Round(time.Millisecond), warmDur.Round(time.Millisecond))
	if float64(warmDur) > 1.5*float64(lazyDur) {
		t.Errorf("prewarmed sweep much slower than the lazy one: %v vs %v", warmDur, lazyDur)
	}

	// Cache-dir load: decode every persisted fig5 trace, binary codec vs
	// the text format, over enough passes for a stable wall clock. Traces
	// live in the sharded layout.
	binFiles, err := filepath.Glob(filepath.Join(ccDir, "??", "*.contactsb"))
	if err != nil || len(binFiles) == 0 {
		t.Fatalf("no persisted binary traces (err %v)", err)
	}
	textDir := t.TempDir()
	for _, f := range binFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := vdtn.DecodeContactRecording(data)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), "b") // .contactsb -> .contacts
		if err := os.WriteFile(filepath.Join(textDir, name), []byte(rec.Format()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The file lists are enumerated once, outside the timed passes: the
	// comparison targets read+decode cost, which is what the text format
	// dominates on large fleets.
	textFiles, err := filepath.Glob(filepath.Join(textDir, "*.contacts"))
	if err != nil || len(textFiles) == 0 {
		t.Fatalf("no text traces under %s (err %v)", textDir, err)
	}
	loadFiles := func(files []string) int {
		transitions := 0
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := vdtn.DecodeContactRecording(data)
			if err != nil {
				t.Fatal(err)
			}
			transitions += len(rec.Transitions)
		}
		return transitions
	}
	// One untimed pass per loader warms the page cache and code paths, so
	// the timed passes compare steady-state decode cost, not first-touch
	// I/O; 100 passes keep millisecond rounding from drowning the ~100 µs
	// per-pass differences.
	const loadPasses = 100
	loadFiles(textFiles)
	loadFiles(binFiles)
	start = time.Now()
	textTransitions := 0
	for i := 0; i < loadPasses; i++ {
		textTransitions = loadFiles(textFiles)
	}
	textLoad := time.Since(start)
	start = time.Now()
	binTransitions := 0
	for i := 0; i < loadPasses; i++ {
		binTransitions = loadFiles(binFiles)
	}
	binLoad := time.Since(start)
	if textTransitions != binTransitions {
		t.Fatalf("formats decoded different traces: %d vs %d transitions", textTransitions, binTransitions)
	}
	loadSpeedup := float64(textLoad) / float64(binLoad)
	t.Logf("cache-dir load (%d traces, %d transitions, %d passes): text %v, binary %v (%.2fx)",
		len(binFiles), binTransitions, loadPasses,
		textLoad.Round(time.Millisecond), binLoad.Round(time.Millisecond), loadSpeedup)
	// The issue target is >= 3x; gate CI at 2x to absorb runner noise
	// while still catching a real codec regression.
	if loadSpeedup < 2 {
		t.Errorf("binary cache load only %.2fx faster than text, want >= 3x nominal", loadSpeedup)
	}

	// Mmap view open vs binary slurp over the same files: the view runs
	// the identical integrity + structural pass but never materializes the
	// transition slice, so getting a replay-ready source from the page
	// cache must be no slower than decoding one into the heap.
	loadViews := func() int {
		transitions := 0
		for _, f := range binFiles {
			v, err := vdtn.OpenContactRecordingView(f)
			if err != nil {
				t.Fatal(err)
			}
			transitions += v.Len()
			v.Close()
		}
		return transitions
	}
	loadViews() // warm, matching the slurp loaders
	start = time.Now()
	mmapTransitions := 0
	for i := 0; i < loadPasses; i++ {
		mmapTransitions = loadViews()
	}
	mmapLoad := time.Since(start)
	if mmapTransitions != binTransitions {
		t.Fatalf("mmap views saw %d transitions, slurp %d", mmapTransitions, binTransitions)
	}
	mmapVsSlurp := float64(binLoad) / float64(mmapLoad)
	t.Logf("replay-source load (%d passes): binary slurp %v, mmap view %v (view %.2fx vs slurp)",
		loadPasses, binLoad.Round(time.Millisecond), mmapLoad.Round(time.Millisecond), mmapVsSlurp)
	// Gate "no slower" with headroom for shared-runner noise.
	if float64(mmapLoad) > 1.25*float64(binLoad) {
		t.Errorf("mmap view load %v much slower than binary slurp %v", mmapLoad, binLoad)
	}

	// Per-cell replay preparation: the slurp path re-validates the shared
	// recording inside every cell's Config.Validate (pair-state bitmap and
	// all) before taking a cursor; a view validated once at open hands
	// each cell just a cursor.
	recData, err := os.ReadFile(binFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	sharedRec, err := vdtn.DecodeContactRecording(recData)
	if err != nil {
		t.Fatal(err)
	}
	sharedView, err := vdtn.OpenContactRecordingView(binFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	defer sharedView.Close()
	cellSlurpAllocs := testing.AllocsPerRun(200, func() {
		if err := sharedRec.Validate(); err != nil {
			panic(err)
		}
		_ = sharedRec.Cursor()
	})
	cellMmapAllocs := testing.AllocsPerRun(200, func() {
		_ = sharedView.Cursor()
	})
	t.Logf("per-cell replay prep allocations: slurp %.0f, mmap view %.0f", cellSlurpAllocs, cellMmapAllocs)
	if cellMmapAllocs >= cellSlurpAllocs {
		t.Errorf("view replay does not reduce per-cell allocations: slurp %.0f, view %.0f",
			cellSlurpAllocs, cellMmapAllocs)
	}
}
