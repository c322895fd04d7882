package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// tinyParams shrinks every workload to a fraction of a second of
// simulation; the pinned seed-1 checks do not apply at this size.
func tinyParams() params {
	p := defaultParams()
	p.paperScale = 0.05
	p.fleetVehicles = 60
	p.fleetHours = 0.25
	p.sweepScale = 0.02
	return p
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func unitsByName(list []struct{ Name, Unit string }) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		m[x.Name] = x.Unit
	}
	return m
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// scale: all outputs must check out, and the result line must carry
// exactly the metrics BENCHMARK.json declares for the mode, with its units.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			o := options{seed: 3, seconds: 0.01, traced: traced,
				root: "..", out: dir, work: filepath.Join(dir, "work"), p: tinyParams()}
			var out bytes.Buffer
			rep, err := execute(wl, o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.name, traced, err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: %+v\n%s", wl.name, traced, rep, out.String())
			}
			want := unitsByName(spec.EndToEnd)
			if traced {
				want = unitsByName(spec.PerLayer)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !sameUnits(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", wl.name, traced, keys(got), keys(want))
			}
		}
	}
}

func sameUnits(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestTailOf(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tailOf(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tailOf(xs[:15]); v != 8 || p != 50 {
		t.Errorf("tail of 1..15 = %v at p%v, want the median 8 at p50", v, p)
	}
}
