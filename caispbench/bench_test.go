package main

import (
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// TestTinyWorkloads runs every workload, end to end and traced, at a
// tiny scale; each run must pass all of its output checks.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the platform")
	}
	workdir := t.TempDir()
	for _, s := range workloads() {
		for _, traced := range []bool{false, true} {
			res, facts, err := execute(s.tiny(), 3, 3, traced, workdir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%v",
					s.name, traced, res.Correct, res.Attempted, res.Failed, facts["check_failures"])
			}
			if len(res.Metrics) == 0 {
				t.Errorf("%s traced=%v: no metrics", s.name, traced)
			}
		}
	}
}

// TestSpanAccounting checks that self times plus unattributed time add
// up to the wall time on a synthetic span tree.
func TestSpanAccounting(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "core.flush", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "correlate.add", Parent: 0, Start: 1 * ms, End: 4 * ms},
		{Name: "tip.commit", Parent: 0, Start: 5 * ms, End: 8 * ms},
		{Name: "storage.compact", Parent: 2, Start: 6 * ms, End: 7 * ms},
		{Name: "mesh.sync", Parent: -1, Start: 12 * ms, End: 15 * ms},
	}
	wall := 20 * ms
	a := account(spans, wall)
	want := map[string]time.Duration{
		"core.flush": 4 * ms, "correlate.add": 3 * ms, "tip.commit": 2 * ms,
		"storage.compact": 1 * ms, "mesh.sync": 3 * ms,
	}
	var sum time.Duration
	for name, d := range a.self {
		sum += d
		if d != want[name] {
			t.Errorf("self(%s) = %v, want %v", name, d, want[name])
		}
	}
	if a.unattributed != 7*ms {
		t.Errorf("unattributed = %v, want 7ms", a.unattributed)
	}
	if sum+a.unattributed != wall {
		t.Errorf("self %v + unattributed %v != wall %v", sum, a.unattributed, wall)
	}
	// Overlapping children cover their union once.
	if got := covered([]span{{Start: 1 * ms, End: 4 * ms}, {Start: 3 * ms, End: 6 * ms}}, []int{0, 1}, 0, wall); got != 5*ms {
		t.Errorf("covered = %v, want 5ms", got)
	}
}

// TestRecorderNesting checks that spans opened inside others become
// their children.
func TestRecorderNesting(t *testing.T) {
	r := newRecorder(true)
	outer := r.begin("core.analyze", "u")
	inner := r.begin("heuristic.tostix", "u")
	r.end(inner)
	r.end(outer)
	if r.spans[inner].Parent != outer || r.spans[outer].Parent != -1 {
		t.Fatalf("parents = %d, %d", r.spans[inner].Parent, r.spans[outer].Parent)
	}
	off := newRecorder(false)
	off.end(off.begin("core.analyze", "u"))
	if len(off.spans) != 0 {
		t.Fatal("disabled recorder recorded spans")
	}
}

// TestInjectedDefects checks that a dropped frame, a lost match, an
// altered score and a stale replica each fail their check.
func TestInjectedDefects(t *testing.T) {
	riocs := []heuristic.RIoC{{ID: "rioc--a", EventUUID: "e1", ThreatScore: 0.5}, {ID: "rioc--b", EventUUID: "e2", ThreatScore: 0.7}}
	got := map[string]float64{"e1\x00rioc--a": 0.5, "e2\x00rioc--b": 0.7}
	if fails, missing := checkDashboard(riocs, got); len(fails) != 0 || missing != 0 {
		t.Fatalf("intact frames failed: %v", fails)
	}
	delete(got, "e2\x00rioc--b")
	if fails, missing := checkDashboard(riocs, got); len(fails) == 0 || missing != 1 {
		t.Errorf("dropped frame passed: %v, missing %d", fails, missing)
	}
	if fails, _ := checkMatches(10, 9); len(fails) == 0 {
		t.Error("lost match passed")
	}

	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	me := scoredEIoC(t, collector)
	if fails := checkScores([]*misp.Event{me}, collector, 1); len(fails) != 0 {
		t.Fatalf("intact score failed: %v", fails)
	}
	stored, _ := heuristic.BaseScoreOf(me)
	heuristic.SetBaseScore(me, stored+0.1, time.Now())
	if fails := checkScores([]*misp.Event{me}, collector, 1); len(fails) == 0 {
		t.Error("altered score passed")
	}

	peerCopy := me.Clone()
	if fails, _ := checkReplica([]*misp.Event{me}, []*misp.Event{peerCopy}); len(fails) != 0 {
		t.Fatalf("identical replica failed: %v", fails)
	}
	if fails, _ := checkReplica([]*misp.Event{me}, nil); len(fails) == 0 {
		t.Error("missing replica event passed")
	}
}

// TestPoolsHoldEveryVersion checks that the generated feeds hold every
// version a run can publish, the MISP feed's tenth-sized pool included,
// for each workload at run lengths up to the contract's longest.
func TestPoolsHoldEveryVersion(t *testing.T) {
	for _, s := range workloads() {
		for _, seconds := range []int{1, 20, 30, 60} {
			items := s.poolItems(seconds)
			var versions int
			if s.closed {
				versions = maxClosedRate * seconds / (len(feedgen.AllFeeds) * s.win.size)
			} else {
				versions = int((time.Duration(seconds)*time.Second + 30*time.Second) / s.period)
			}
			for _, name := range feedgen.AllFeeds {
				have := items
				if name == feedgen.FeedMISP {
					have = items/10 + 1 // feedgen's MISP event count
				}
				w := s.windowFor(name)
				if need := w.size + w.step*versions; have < need {
					t.Errorf("%s at %d s: feed %s holds %d items, %d versions need %d", s.name, seconds, name, have, versions, need)
				}
			}
		}
	}
}

// tiny shrinks a workload for the benchmark's own tests: a short
// history, small feed windows and few subscriptions.
func (s spec) tiny() spec {
	if s.history.rounds > 0 {
		s.history.rounds, s.history.items = 2, 60
	}
	if s.win.step == s.win.size {
		s.win = window{step: s.win.size / 5, size: s.win.size / 5}
	} else {
		s.win = window{step: s.win.step / 2, size: s.win.size / 5}
	}
	s.subs = 200
	return s
}

// scoredEIoC composes one vulnerability cluster and scores it as the
// analyzer does.
func scoredEIoC(t *testing.T, collector *infra.Collector) *misp.Event {
	t.Helper()
	now := time.Now()
	ev, err := normalize.New("CVE-2017-9805", normalize.CategoryVulnExploit, "vuln-advisories", normalize.SourceOSINT, now)
	if err != nil {
		t.Fatal(err)
	}
	ev.Context = map[string]string{"products": "apache struts,apache", "cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"}
	delta := correlate.NewIncremental().Add([]normalize.Event{ev})
	if len(delta.New) != 1 {
		t.Fatalf("delta = %+v", delta)
	}
	me, err := correlate.ToMISP(&delta.New[0], now)
	if err != nil {
		t.Fatal(err)
	}
	score, err := rescore(me, collector)
	if err != nil || score == 0 {
		t.Fatalf("score %v, %v", score, err)
	}
	heuristic.SetBaseScore(me, score, now)
	me.AddTag("caisp:eioc")
	return me
}
