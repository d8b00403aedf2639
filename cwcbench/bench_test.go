package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func genBatch(t *testing.T, w *workload, seed int64) []*jobSpec {
	t.Helper()
	b, err := w.gen(w, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameBatch(a, b []*jobSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].task.Name() != b[i].task.Name() || a[i].atomic != b[i].atomic ||
			!bytes.Equal(a[i].task.Params(), b[i].task.Params()) || !bytes.Equal(a[i].input, b[i].input) {
			return false
		}
	}
	return true
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := genBatch(t, w, 7), genBatch(t, w, 7), genBatch(t, w, 8)
		if !sameBatch(a, b) {
			t.Errorf("%s: the same seed gave different batches", w.name)
		}
		if sameBatch(a, c) {
			t.Errorf("%s: different seeds gave the same batch", w.name)
		}
		if len(a) != w.jobs {
			t.Errorf("%s: %d jobs, want %d", w.name, len(a), w.jobs)
		}
		// Sizes are rescaled to a fixed total; generators land each job
		// within a record (or an image row) of its size.
		kb := float64(batchBytes(a)) / 1024
		if kb < w.batchKB*0.95 || kb > w.batchKB*1.05 {
			t.Errorf("%s: batch holds %.0f KB, want ≈%.0f", w.name, kb, w.batchKB)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(declared))
		}
		for i, m := range defs {
			if !nameRe.MatchString(m.name) || !unitRe.MatchString(m.unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.name, m.unit)
			}
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: program says %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !nameRe.MatchString(w.name) {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, spec.Workloads[i].Name)
		}
	}
}

func TestCoveredWithin(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{{at(0), at(10)}, {at(5), at(20)}, {at(30), at(40)}, {at(90), at(200)}}
	if got, want := coveredWithin(ivs, at(0), at(100)), 40*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := coveredWithin(nil, at(0), at(100)); got != 0 {
		t.Errorf("covered by nothing = %v", got)
	}
}

// TestShortRunPassesGate runs a shrunken durable workload untraced and
// traced through the real master and fleet and expects every job to match
// its reference.
func TestShortRunPassesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a cluster")
	}
	base, err := findWorkload("small-durable")
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	w.phones, w.jobs, w.batchKB, w.deployments = base.phones[:4], 40, 200, 1
	o := options{seed: 3, seconds: 0.5, dir: t.TempDir(), commit: "test"}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		res, err := runOne(&w, traced, o, &out)
		if errors.Is(err, errTmpfs) {
			t.Skip(err)
		}
		if err != nil {
			t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < w.jobs {
			t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d\n%s", traced, res.Correct, res.Failed, res.Attempted, out.String())
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
		if traced && !strings.Contains(out.String(), "spans: ") {
			t.Errorf("traced run wrote no spans:\n%s", out.String())
		}
	}
}
