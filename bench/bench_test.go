package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
	s := []uint32{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.99, 39.7}} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
}

func TestSummarizeIsWindowMedian(t *testing.T) {
	// One stalled window must not move the reported number.
	s := summarize([]float64{100, 102, 5, 101, 99}, "1/s")
	if s.Median != 100 || s.Min != 5 || s.Max != 102 || s.N != 5 {
		t.Errorf("odd: %+v", s)
	}
	if got := summarize([]float64{4, 1, 3, 2}, "us").Median; got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := summarize([]float64{90, 100, 110}, "us").spread(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if s := summarize(nil, "us"); s.N != 0 || s.spread() != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestStreamsComeFromTheSeedAlone(t *testing.T) {
	w := findWorkload("net-churn-scan")
	const n = 4000
	a, b := genStreams(w, 1, n), genStreams(w, 1, n)
	if streamHash(a) != streamHash(b) {
		t.Fatal("one seed gave two op streams")
	}
	// Pinned: a change to the generator is a change to every recorded number.
	if got, want := streamHash(a), uint64(0xcf674deff52caeed); got != want {
		t.Errorf("seed 1 stream hash = %#x, want %#x", got, want)
	}
	if streamHash(a) == streamHash(genStreams(w, 2, n)) {
		t.Error("seeds 1 and 2 gave the same op stream")
	}
	if streamHash([][]op{a[0]}) == streamHash([][]op{a[1]}) {
		t.Error("both clients of one seed issue the same stream")
	}
	for c, s := range a {
		for i := 0; i < n; i += mixBlock {
			var got [nKinds]int
			for _, o := range s[i : i+mixBlock] {
				got[o.kind]++
				if o.key >= nKeys {
					t.Fatalf("client %d op %d: key %d out of range", c, i, o.key)
				}
			}
			if got != w.mix {
				t.Fatalf("client %d block at %d holds mix %v, want %v exactly", c, i, got, w.mix)
			}
		}
	}
}

func TestKeysAndTagsRoundTrip(t *testing.T) {
	keys := newKeyTable(300)
	for _, k := range []int{0, 9, 10, 255, 299} {
		if got, ok := keyIndex(keys.bytes[k]); !ok || got != k {
			t.Errorf("keyIndex(%q) = %d, %v", keys.bytes[k], got, ok)
		}
	}
	if bytes.Compare(keys.bytes[9], keys.bytes[10]) >= 0 || keys.words[9] >= keys.words[10] {
		t.Error("key order does not follow index order")
	}
	if _, ok := keyIndex([]byte("00000g0")); ok {
		t.Error("keyIndex accepted a non-hex key")
	}
	tg := makeTag(1, 12345, 70000)
	if tagClient(tg) != 1 || tg>>24 != 12345 || !tagFits(tg, 70000) || tagFits(tg, 70001) {
		t.Errorf("tag %#x does not carry (client 1, seq 12345, key 70000)", tg)
	}
	v := newValue()
	setValueTag(v, tg)
	if got, ok := valueTag(v); !ok || got != tg {
		t.Errorf("valueTag = %#x, %v", got, ok)
	}
	if _, ok := valueTag(v[:8]); ok {
		t.Error("valueTag accepted a short value")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesTheCommand holds BENCHMARK.json and the program
// together: every workload and metric the manifest names is one the command
// prints, and the other way round, with the same unit and direction.
func TestManifestMatchesTheCommand(t *testing.T) {
	var man manifest
	if err := readJSON("../BENCHMARK.json", &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the command %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q / %q, command %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			d := want[i]
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: malformed definition %+v", kind, d)
			}
			if seen[d.Name] {
				t.Errorf("%s: name %s used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if i < len(got) && got[i] != d {
				t.Errorf("%s metric %d: manifest %+v, command %+v", kind, i, got[i], d)
			}
		}
	}
	var e2e []metricDef
	hasSetup := false
	for _, m := range man.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("manifest lacks setup_s in s, lower is better")
	}
	check("end_to_end", e2e, endToEndDefs)
	check("per_layer", man.PerLayer, perLayerDefs)
	if len(perLayerDefs) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayerDefs))
	}

	// What the command prints, and the line the driver reads, carry every name.
	for _, traced := range []bool{false, true} {
		res := &result{Workload: "w", Traced: traced, Correct: true, Attempted: 1,
			EndToEnd: map[string]stat{}, PerLayer: map[string]float64{}}
		var out bytes.Buffer
		res.print(&out)
		line, err := json.Marshal(res.driverLine())
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Correct   *bool                     `json:"correct"`
			Attempted *uint64                   `json:"attempted"`
			Failed    *uint64                   `json:"failed"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&parsed); err != nil || parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil {
			t.Fatalf("driver line %s: %v", line, err)
		}
		want := endToEndDefs
		if traced {
			want = perLayerDefs
		}
		if len(parsed.Metrics) != len(want) {
			t.Errorf("traced=%v: driver line has %d metrics, want %d", traced, len(parsed.Metrics), len(want))
		}
		for _, d := range want {
			if m := parsed.Metrics[d.Name]; m["unit"] != d.Unit || len(m) != 2 {
				t.Errorf("traced=%v: driver line metric %s = %v", traced, d.Name, m)
			}
			if !strings.Contains(out.String(), "\n"+d.Name+" ") {
				t.Errorf("traced=%v: the command does not print %s", traced, d.Name)
			}
		}
	}
}

func TestDurabilityCheckerCatchesPlantedFaults(t *testing.T) {
	const key = 42
	fresh := func() [][]uint64 {
		l := make([][]uint64, nClients+1)
		for i := range l {
			l[i] = make([]uint64, nKeys)
		}
		l[preloader][key] = makeTag(preloader, 0, key)
		return l
	}
	old, latest := makeTag(0, 5, key), makeTag(0, 9, key)

	l := fresh()
	if err := checkDurable(l, key, makeTag(preloader, 0, key), true); err != nil {
		t.Errorf("untouched preloaded key: %v", err)
	}
	l[0][key] = latest
	if err := checkDurable(l, key, latest, true); err != nil {
		t.Errorf("last acknowledged write recovered: %v", err)
	}
	if err := checkDurable(l, key, old, true); err == nil || !strings.Contains(err.Error(), "lost write") {
		t.Errorf("planted lost write (seq 9 acknowledged, seq 5 recovered): %v", err)
	}
	if err := checkDurable(l, key, 0, false); err == nil {
		t.Error("key absent though nobody deleted it: not caught")
	}
	l[1][key] = makeTag(1, 3, key)
	if err := checkDurable(l, key, l[1][key], true); err != nil {
		t.Errorf("the other client's last acknowledged write recovered: %v", err)
	}

	l = fresh()
	l[0][key] = deleted
	if err := checkDurable(l, key, 0, false); err != nil {
		t.Errorf("deleted key absent: %v", err)
	}
	if err := checkDurable(l, key, old, true); err == nil || !strings.Contains(err.Error(), "resurrected") {
		t.Errorf("planted resurrected delete: %v", err)
	}
	if err := checkDurable(l, key, makeTag(0, 5, key+1), true); err == nil {
		t.Error("value tagged for another key: not caught")
	}
	if err := checkDurable(l, key, 0xff, true); err == nil {
		t.Error("value from an unknown client: not caught")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		better              string
		a, b, spread, bound float64
		want                string
	}{
		{"lower", 100, 105, 0.02, 0.10, "ok"},
		{"lower", 100, 115, 0.02, 0.10, "worse"},
		{"lower", 100, 80, 0.02, 0.10, "ok"},
		{"higher", 100, 85, 0.02, 0.10, "worse"},
		{"higher", 100, 120, 0.02, 0.10, "ok"},
		{"lower", 100, 108, 0.15, 0.10, "unresolved"},
		{"lower", 100, 112, 0.15, 0.10, "unresolved"}, // worse than the bound, but inside the windows' own spread
		{"lower", 100, 130, 0.15, 0.10, "worse"},
		{"lower", 13.0, 13.2, 0, 0.01, "worse"},
	} {
		if _, got := verdict(c.better, c.a, c.b, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%s, a=%v, b=%v, spread=%v, bound=%v) = %s, want %s", c.better, c.a, c.b, c.spread, c.bound, got, c.want)
		}
	}
}

// TestRunEndToEnd drives the churn workload (TCP, two shards, deletes and
// scans) through a real store for a fraction of a second: the run must be
// clean, the durability check must pass on what the clients acknowledged, and
// must fail once an acknowledgement the store never saw is planted.
func TestRunEndToEnd(t *testing.T) {
	w := findWorkload("net-churn-scan")
	keys := newKeyTable(2 * nKeys)
	preload := make([]uint64, nKeys)
	tg, err := setUp(w, keys, preload)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(tg, genStreams(w, 1, 1<<14), 2, 2)
	m, err := r.measure(20*time.Millisecond, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e := m.windows(1, 2)
	if e.ops == 0 || e.opsPerS.Median <= 0 || e.p50[opScan].Median <= 0 || e.flushes.Median <= 0 {
		t.Errorf("windows measured nothing: %+v", e)
	}
	var spans, scanned uint64
	for _, c := range r.clients {
		if c.failed+c.lost > 0 {
			t.Errorf("client %d: %d failed, %d lost: %v", c.id, c.failed, c.lost, c.firstErr)
		}
		spans += uint64(len(c.spans))
		scanned += c.scanned
	}
	if spans == 0 || scanned == 0 {
		t.Errorf("traced window recorded %d spans, scans returned %d entries", spans, scanned)
	}
	ls := lasts(r.clients, preload)
	// Plant a lost write: on one key, every writer "was acknowledged" a write
	// the store never got, so whatever the key recovers to is stale.
	planted := int(r.clients[0].stream[0].key)
	for c := range ls {
		ls[c][planted] = makeTag(c, 1<<30, planted)
	}
	rec, err := tg.crashAndCheck(ls)
	if err != nil {
		t.Fatal(err)
	}
	if rec.checked != nKeys {
		t.Errorf("checked %d keys, want %d", rec.checked, nKeys)
	}
	if rec.violations != 1 {
		t.Errorf("%d violations, want exactly the planted one; first: %v", rec.violations, rec.first)
	}
	if rec.liveBytes == 0 || rec.memBytes < rec.liveBytes {
		t.Errorf("space: %d bytes in use for %d live bytes", rec.memBytes, rec.liveBytes)
	}
}
