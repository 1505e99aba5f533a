package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newShared() *kvsShared {
	sh := &kvsShared{
		clients: 2,
		keys:    make([][]byte, kvsKeys),
		issued:  make([]atomic.Uint64, kvsKeys),
		acked:   make([][]uint64, 2),
	}
	for i := range sh.acked {
		sh.acked[i] = make([]uint64, kvsKeys)
	}
	return sh
}

// TestKVSVerifierCountsPlantedValues hands the kvs result check values
// that a faulty store could return and expects each to count as a failure.
func TestKVSVerifierCountsPlantedValues(t *testing.T) {
	sh := newShared()
	const key = 10 // owned by client 0
	sh.issued[key].Store(3)
	sh.acked[0][key] = 3

	val := func(k, w int, seq uint64) []byte {
		v := make([]byte, valueSize)
		encodeValue(v, k, w, seq)
		return v
	}
	flipped := val(key, 0, 3)
	flipped[20] ^= 1
	cases := []struct {
		name   string
		reader int
		v      []byte
		fails  bool
	}{
		{"latest own write", 0, val(key, 0, 3), false},
		{"older value read by the other client", 1, val(key, 0, 2), false},
		{"corrupted byte", 1, flipped, true},
		{"truncated", 1, val(key, 0, 3)[:32], true},
		{"another key's value", 1, val(key+2, 0, 3), true},
		{"wrong writer", 1, val(key, 1, 3), true},
		{"sequence never written", 1, val(key, 0, 4), true},
		{"own write not visible", 0, val(key, 0, 2), true},
	}
	for _, tc := range cases {
		rec := newRecorder(time.Now(), 0, false)
		sh.checkValue(rec, tc.reader, key, tc.v)
		if got := rec.failed > 0; got != tc.fails {
			t.Errorf("%s: failed=%d, want failure %v", tc.name, rec.failed, tc.fails)
		}
	}
}

// TestRMCVerifierCountsPlantedResults plants a wrong FetchAdd return and
// wrong read data and expects both to count as failures.
func TestRMCVerifierCountsPlantedResults(t *testing.T) {
	rec := newRecorder(time.Now(), 0, false)
	checkWord(rec, "fetch-add", 64, 7, 7)
	if rec.failed != 0 {
		t.Fatalf("matching fetch-add return counted as a failure")
	}
	checkWord(rec, "fetch-add", 64, 8, 7)
	if rec.failed != 1 {
		t.Fatalf("wrong fetch-add return: failed=%d, want 1", rec.failed)
	}

	c := &rmcClient{shadow: bytes.Repeat([]byte{0xab}, 4*lineSize)}
	got := bytes.Repeat([]byte{0xab}, lineSize)
	c.check(rec, got, lineSize)
	if rec.failed != 1 {
		t.Fatalf("matching read counted as a failure")
	}
	got[lineSize-1] = 0
	c.check(rec, got, lineSize)
	if rec.failed != 2 {
		t.Fatalf("corrupted read: failed=%d, want 2", rec.failed)
	}
}

func TestSelfTimeSubtractsCoveredFabricTime(t *testing.T) {
	ops := []opSpan{{start: 100, end: 200}, {start: 300, end: 400}}
	fab := []fabSpan{
		{start: 110, end: 130}, {start: 120, end: 140}, // overlapping: 30 ns covered
		{start: 190, end: 310}, // straddles both ops: 10 + 10
		{start: 500, end: 600}, // outside every op
	}
	// Op 1: 100 − 30 − 10 = 60; op 2: 100 − 10 = 90.
	if got := selfTime(ops, fab, 0); got != 150e-9 {
		t.Fatalf("selfTime = %v s, want 150 ns", got)
	}
	// The same spans on a clock 1000 ns later.
	for i := range fab {
		fab[i].start += 1000
		fab[i].end += 1000
	}
	if got := selfTime(ops, fab, -1000); got != 150e-9 {
		t.Fatalf("selfTime with offset = %v s, want 150 ns", got)
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestDeclaredMetricsAreEmitted runs rmc-mix briefly, untraced and traced,
// and checks that each run emits exactly the metrics BENCHMARK.json
// declares for it, with the declared units and well-formed names.
func TestDeclaredMetricsAreEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for traceFlag, want := range map[string][]struct{ Name, Unit string }{"0": d.EndToEnd, "1": d.PerLayer} {
		var out, errb bytes.Buffer
		code := run([]string{"-workload", "rmc-mix", "-seed", "7", "-seconds", "1", "-trace", traceFlag,
			"-out", t.TempDir()}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traceFlag, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", traceFlag, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d", traceFlag, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: emitted %d metrics, BENCHMARK.json declares %d", traceFlag, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %s: %s declared but not emitted", traceFlag, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("trace %s: %s emitted in %q, declared in %q", traceFlag, m.Name, got.Unit, m.Unit)
			}
		}
	}
}
