package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/tip"
)

// env is one benchmark run: the workload, its generated inputs and the
// feed server that publishes them.
type env struct {
	s       spec
	seed    int64
	seconds int
	runDir  string
	hist    string
	gen     *feedServer
}

// deployment is one set-up of the system under test.
type deployment struct {
	o       *origin
	peer    *peer
	sinks   *sinks
	dash    *wsReader
	matches *wsReader
	dirs    []string
	// matchBase is the engine's match count when the match socket attached.
	matchBase int64
}

// deploy sets the system up and drives it to steady state: platform
// started, subscriptions registered, the peer pulling, version 0 of every
// feed scored and both sockets connected. The returned duration runs
// from core.New to steady state; copying the prepared data directories
// and opening the peer's store happen before it.
func (e *env) deploy(iter int) (*deployment, time.Duration, error) {
	e.gen.reset()
	d := &deployment{}
	originDir, peerDir := "", ""
	if e.hist != "" {
		originDir = filepath.Join(e.runDir, fmt.Sprintf("origin-%d", iter))
		peerDir = filepath.Join(e.runDir, fmt.Sprintf("peer-%d", iter))
		d.dirs = append(d.dirs, originDir, peerDir)
		if err := copyDir(e.hist, originDir); err != nil {
			return d, 0, err
		}
		if err := copyDir(e.hist, peerDir); err != nil {
			return d, 0, err
		}
	}
	var err error
	if d.peer, err = newPeer(peerDir); err != nil {
		return d, 0, err
	}

	start := time.Now()
	cfg := core.Config{
		DataDir:           originDir,
		NodeName:          "origin",
		Feeds:             httpFeeds(e.gen, e.s.poll, pollClient()),
		ShareTAXII:        true,
		FeedConcurrency:   runtime.NumCPU(),
		LifecycleInterval: e.s.lcInterval,
		LifecycleBatch:    e.s.lcBatch,
		Logger:            quietLogger(),
	}
	if d.o, err = startOrigin(cfg, flushInterval); err != nil {
		return d, 0, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < e.s.subs; i++ {
		if _, err := d.o.p.Subscriptions().Register(fmt.Sprintf("soc-%d", i/1000), subscriptionPattern(i, rng, e.gen)); err != nil {
			return d, 0, fmt.Errorf("register subscription %d: %w", i, err)
		}
	}
	if err := d.peer.connect(d.o.tipAddr, e.s.meshEvery, true); err != nil {
		return d, 0, err
	}
	for i := range e.gen.pools {
		if err := e.gen.setVersion(i, 0); err != nil {
			return d, 0, err
		}
	}
	// The sockets attach once the first full lists are scored, as a
	// dashboard joins a running platform: the dashboard's connect snapshot
	// carries the state so far, and matches counted before the match
	// socket attached are the baseline.
	d.sinks = newSinks(e.gen, d.o.p.TIP().GetEvent)
	if _, err := waitQuiet(d, e.gen, e.gen.wantRecords(0), 300*time.Millisecond, 90*time.Second, nil); err != nil {
		return d, 0, fmt.Errorf("set-up: %w", err)
	}
	d.matchBase = d.o.p.Subscriptions().Stats().Matches
	if d.dash, err = dialWS("ws://" + d.o.dashAddr + "/ws"); err != nil {
		return d, 0, err
	}
	if d.matches, err = dialWS("ws://" + d.o.dashAddr + "/ws/matches"); err != nil {
		return d, 0, err
	}
	d.sinks.attach(d.dash, d.matches)
	for d.o.p.Dashboard().ClientCount() < 1 || d.o.p.Subscriptions().Watchers() < 1 || !d.sinks.greeted() {
		if time.Since(start) > 90*time.Second {
			return d, 0, fmt.Errorf("sockets did not register (dashboard clients %d, match watchers %d, greeted %v)",
				d.o.p.Dashboard().ClientCount(), d.o.p.Subscriptions().Watchers(), d.sinks.greeted())
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

func (d *deployment) close() {
	if d.dash != nil {
		d.dash.close()
	}
	if d.matches != nil {
		d.matches.close()
	}
	if d.sinks != nil {
		d.sinks.wg.Wait()
	}
	if d.peer != nil {
		d.peer.close()
	}
	if d.o != nil {
		d.o.close()
	}
	for _, dir := range d.dirs {
		_ = os.RemoveAll(dir)
	}
}

// quietKey is everything that moves while the pipeline works on served
// records. Expiry and re-scoring move the store on their own schedule and
// are left out.
type quietKey struct {
	collected, unique, ciocs, edits, merges, eiocs, unscorable, riocs int
	frames                                                            [2]int
}

var errNotQuiet = errors.New("pipeline did not settle")

// settled is the moment the pipeline last moved before it went quiet,
// and its counters then.
type settled struct {
	at time.Time
	st core.Stats
}

// waitQuiet blocks until the feed server has served at least want records,
// the platform has collected every served record, every stored cluster
// revision has been analyzed (bar those a merge or an expiry retracted
// first), and nothing in the pipeline or on the sockets moved for quiet.
// It gives up at timeout, or when stop closes (returning a zero settled).
func waitQuiet(d *deployment, gen *feedServer, want int64, quiet, timeout time.Duration, stop <-chan struct{}) (settled, error) {
	deadline := time.Now().Add(timeout)
	var last quietKey
	var since time.Time
	for {
		select {
		case <-stop:
			return settled{}, nil
		default:
		}
		if time.Now().After(deadline) {
			st := d.o.p.Stats()
			rioc, match := d.sinks.frames()
			return settled{}, fmt.Errorf("%w within %s (want %d records; served %d, collected %d, unique %d; "+
				"ciocs %d + edits %d vs eiocs %d + unscorable %d, merges %d, expired %d; frames %d rIoC, %d match)",
				errNotQuiet, timeout, want, gen.counts().records, st.EventsCollected, st.EventsUnique,
				st.CIoCs, st.ClusterEdits, st.EIoCs, st.Unscorable, st.ClusterMerges, expired(d.o.p), rioc, match)
		}
		served := gen.counts().records
		st := d.o.p.Stats()
		rioc, match := d.sinks.frames()
		key := quietKey{st.EventsCollected, st.EventsUnique, st.CIoCs, st.ClusterEdits, st.ClusterMerges,
			st.EIoCs, st.Unscorable, st.RIoCs, [2]int{rioc, match}}
		unanalyzed := int64(st.CIoCs + st.ClusterEdits - st.EIoCs - st.Unscorable)
		switch {
		case served < want || int64(st.EventsCollected) < served || unanalyzed > int64(st.ClusterMerges)+expired(d.o.p) || key != last:
			last, since = key, time.Now()
		case time.Since(since) >= quiet:
			return settled{at: since, st: st}, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expired is how many events the lifecycle engine has expired.
func expired(p *core.Platform) int64 {
	if lc := p.Lifecycle(); lc != nil {
		return lc.Stats().Expired
	}
	return 0
}

// closedWindow bounds the backfill loop's work in flight: records
// collected but not yet flushed plus stored cluster revisions not yet
// analyzed. A feed gets its next page only below it.
const closedWindow = 400

// closeLoop makes the feed server's loop closed on the platform's work in
// flight, sampled every 20 ms until stop closes.
func (e *env) closeLoop(p *core.Platform, stop <-chan struct{}) {
	var inflight atomic.Int64
	sample := func() {
		pending := 0.0
		if v, ok := scrapeWith(p.Metrics(), []string{"caisp_pipeline_pending_events"})["caisp_pipeline_pending_events"].(float64); ok {
			pending = v
		}
		st := p.Stats()
		unanalyzed := int64(st.CIoCs+st.ClusterEdits-st.EIoCs-st.Unscorable-st.ClusterMerges) - expired(p)
		inflight.Store(int64(pending) + max(0, unanalyzed))
	}
	sample()
	e.gen.setAdvance(func() bool { return inflight.Load() < closedWindow })
	defer e.gen.setAdvance(nil)
	for {
		select {
		case <-stop:
			return
		case <-time.After(20 * time.Millisecond):
			sample()
		}
	}
}

// openLoop republishes every feed once per period, feeds staggered evenly
// across the period, whatever the platform's progress. It records how late
// each publication ran.
func (e *env) openLoop(t0 time.Time, stop <-chan struct{}, late *samples) error {
	n := len(e.gen.pools)
	for v := 1; ; v++ {
		for i := 0; i < n; i++ {
			due := t0.Add(time.Duration(v)*e.s.period + time.Duration(i)*e.s.period/time.Duration(n))
			select {
			case <-stop:
				return nil
			case <-time.After(time.Until(due)):
			}
			if err := e.gen.setVersion(i, v); err != nil {
				return err
			}
			late.add(time.Since(due))
		}
	}
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runUntraced measures the end-to-end metrics: set up setupRepeats times,
// then drive the last set-up for the run length, settle, and check.
func (e *env) runUntraced(facts map[string]any) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	var setups []float64
	var d *deployment
	for iter := 0; iter < setupRepeats; iter++ {
		var took time.Duration
		var err error
		d, took, err = e.deploy(iter)
		if err != nil {
			d.close()
			return res, err
		}
		setups = append(setups, took.Seconds())
		if iter < setupRepeats-1 {
			d.close()
		}
	}
	defer d.close()
	facts["setup_s_each"] = setups

	// Measured window.
	p := d.o.p
	d.sinks.dashLat.reset()
	d.sinks.matchLat.reset()
	d.peer.local.takeImports()
	base := p.Stats()
	basePolls := e.gen.counts().polls
	an := newAnalyst(d.o.tipAddr, e.gen, e.s.queryThink)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var driveErr error
	var late samples
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		an.run(stop)
	}()
	go func() {
		defer wg.Done()
		if e.s.closed {
			e.closeLoop(p, stop)
		} else {
			driveErr = e.openLoop(t0, stop, &late)
		}
	}()
	time.Sleep(time.Duration(e.seconds) * time.Second)
	close(stop)
	t1 := time.Now()
	end := p.Stats()
	served := e.gen.counts()
	wg.Wait()
	if driveErr != nil {
		return res, driveErr
	}
	if served.exhausted {
		return res, fmt.Errorf("the closed loop ran past its feed pools; enlarge spec.poolItems")
	}
	window := t1.Sub(t0).Seconds()
	facts["window_s"] = window
	if e.s.closed {
		facts["closed_window"] = closedWindow
	}
	facts["load.gen_lag_ms_p99"] = summarize(late.values())
	facts["load.backlog_end"] = (served.records - int64(end.EventsCollected)) +
		int64(end.CIoCs+end.ClusterEdits-end.EIoCs-end.Unscorable) - int64(base.CIoCs+base.ClusterEdits-base.EIoCs-base.Unscorable)

	// Settle: stop expiry so the store holds still, drain the pipeline,
	// then let the peer catch up with the origin's change feed.
	var failures []string
	expired := int64(0)
	if lc := p.Lifecycle(); lc != nil {
		lc.Close()
		expired = lc.Stats().Expired
	}
	if _, err := waitQuiet(d, e.gen, served.records, time.Second, 90*time.Second, nil); err != nil {
		failures = append(failures, err.Error())
	}
	originSeq := p.TIP().StoreSeq()
	for tries := 0; d.peer.mesh.Cursor("origin").Seq < originSeq && tries < 100; tries++ {
		if _, err := d.peer.mesh.SyncOnce(context.Background()); err != nil {
			failures = append(failures, "final peer sync: "+err.Error())
			break
		}
	}

	// Output checks.
	st := p.Stats()
	failures = append(failures, checkPipeline(st, e.gen.counts(), expired)...)
	sc := d.sinks.counts()
	riocs := p.Dashboard().RIoCs()
	dashFail, missingFrames := checkDashboard(riocs, sc.riocScore)
	failures = append(failures, dashFail...)
	subStats := p.Subscriptions().Stats()
	matchFail, missingMatches := checkMatches(subStats.Matches-d.matchBase, sc.matches)
	failures = append(failures, matchFail...)
	eiocs, err := storedEIoCs(p.TIP())
	if err != nil {
		return res, err
	}
	failures = append(failures, checkScores(eiocs, p.Collector(), e.seed)...)
	originAll, err := p.TIP().Search(tip.SearchQuery{})
	if err != nil {
		return res, err
	}
	peerAll, err := d.peer.store.All()
	if err != nil {
		return res, err
	}
	replFail, diverged := checkReplica(originAll, peerAll)
	failures = append(failures, replFail...)
	facts["replica_same_revision_content_diverged"] = diverged

	// Replication latency: the first import of each cluster revision,
	// from the first serve of its newest member record.
	var repl samples
	seen := make(map[string]bool)
	for _, imp := range d.peer.local.takeImports() {
		key := imp.event.UUID + "\x00" + correlate.ClusterContentOf(imp.event)
		if seen[key] {
			continue
		}
		seen[key] = true
		if newest, ok := newestMember(e.gen, imp.event, imp.at); ok {
			repl.add(imp.at.Sub(newest))
		}
	}

	dash, match := summarize(d.sinks.dashLat.values()), summarize(d.sinks.matchLat.values())
	rep, query := summarize(repl.values()), summarize(an.lat.values())
	for name, s := range map[string]summary{"dashboard": dash, "match": match, "replication": rep, "query": query} {
		facts[name+"_latency"] = s
		if s.N == 0 {
			failures = append(failures, "no "+name+" latency samples")
		}
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", median(setups), "s")
	set("ingest_items_per_s", float64(end.EventsCollected-base.EventsCollected)/window, "1/s")
	set("eioc_per_s", float64(end.EIoCs-base.EIoCs)/window, "1/s")
	// The tails and the query latency stay in the facts line only: on
	// backfill they spread too widely from run to run to carry a bound
	// (see README.md).
	set("dashboard_latency_p50_ms", dash.P50, "ms")
	set("match_latency_p50_ms", match.P50, "ms")
	set("replication_latency_p50_ms", rep.P50, "ms")

	// Operations: feed polls, store commits, expected frames and matches,
	// analyst queries and mesh page pulls.
	totals := d.peer.mesh.Totals()
	feedErrors := 0
	for _, fs := range p.FeedStats() {
		feedErrors += fs.Errors
	}
	res.Attempted = (served.polls - basePolls) + int64(st.CIoCs+st.ClusterEdits) +
		int64(len(riocs)) + subStats.Matches - d.matchBase + an.attempts.Load() + totals.Pages + totals.Errors
	res.Failed = int64(feedErrors+st.StoreFailures+missingFrames) + missingMatches +
		an.failures.Load() + totals.Errors
	facts["operations"] = map[string]int64{
		"feed_polls": served.polls - basePolls, "feed_errors": int64(feedErrors),
		"store_commits": int64(st.CIoCs + st.ClusterEdits), "store_failures": int64(st.StoreFailures),
		"riocs": int64(len(riocs)), "rioc_frames": int64(sc.riocFrames), "missing_frames": int64(missingFrames),
		"matches": subStats.Matches - d.matchBase, "match_frames": int64(sc.matchFrames), "unresolved_frames": int64(sc.unresolved),
		"queries": an.attempts.Load(), "query_failures": an.failures.Load(),
		"mesh_pages": totals.Pages, "mesh_errors": totals.Errors, "mesh_deleted": totals.Deleted,
		"lifecycle_expired": expired, "stored_events": int64(st.StoredEvents),
	}
	facts["stats"] = st
	facts["scrape"] = map[string]any{"origin": scrape(p.Metrics()), "peer": scrape(d.peer.reg)}

	res.Correct = len(failures) == 0
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	facts["check_failures"] = failures
	// The generated inputs are the benchmark's, not the platform's: drop
	// them before weighing the live heap.
	e.gen.release()
	set("heap_mb", heapMB(), "MB")
	return res, nil
}
