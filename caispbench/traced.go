package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/dashboard"
	"github.com/caisplatform/caisp/internal/dedup"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/taxii"
	"github.com/caisplatform/caisp/internal/textclass"
	"github.com/caisplatform/caisp/internal/tip"
)

// Thresholds and defaults core.Platform applies; the replay mirrors them.
const (
	compactAfterOps   = 5000
	compactAfterBytes = 32 << 20
	lifecycleDefault  = time.Minute
	// replayQueryRate paces an analyst without think time in the replay,
	// which cannot query concurrently with the chain it interleaves with.
	replayQueryRate = 100
)

// replica is the platform's layers built from their public constructors
// with core.New's options, driven by one goroutine in core.Platform's
// order — poll, dedup, flush (correlate, compose, group commit, cIoC
// subscriptions), then analysis of each stored cluster — so that every
// layer call can carry a span. Mesh sync, lifecycle passes, compaction and
// analyst reads run between steps on their schedules.
type replica struct {
	e   *env
	rec *recorder
	reg *obs.Registry

	store      *storage.Store
	broker     *bus.Broker
	tip        *tip.Service
	deduper    *dedup.Deduper
	corr       *correlate.Incremental
	classifier *textclass.Classifier
	collector  *infra.Collector
	engine     *heuristic.Engine
	subs       *subscribe.Engine
	dash       *dashboard.Server
	taxii      *taxii.Server
	lifec      *lifecycle.Engine
	fetchers   []*feed.HTTPFetcher
	peer       *peer

	servers  []*http.Server
	dashWS   *wsReader
	matchWS  *wsReader
	sinks    *sinks
	pushDone map[uint64]time.Time // dashboard revision → push returned
	dirs     []string
	rng      *rand.Rand

	n replayCounts
}

// replayCounts are the work counts measured at the layer boundaries.
type replayCounts struct {
	polls, fetchErrors, records, offered, admitted, classified int
	flushes, added, deltaClusters, composed                    int
	batches, committed, compactions                            int
	walBytes                                                   int64
	writebacks, correlated                                     int
	converted, sdos, scored, riocs, unscorable                 int
	evaluated, matched                                         int
	syncs, passes, expired, queries                            int
	pageUUID                                                   string
	idle                                                       time.Duration
}

func (e *env) newReplica(iter int, traced bool) (*replica, error) {
	e.gen.reset()
	r := &replica{e: e, reg: obs.NewRegistry(), pushDone: make(map[uint64]time.Time),
		rng: rand.New(rand.NewSource(e.seed))}
	originDir, peerDir := "", ""
	if e.hist != "" {
		originDir = filepath.Join(e.runDir, fmt.Sprintf("replay-origin-%d", iter))
		peerDir = filepath.Join(e.runDir, fmt.Sprintf("replay-peer-%d", iter))
		r.dirs = append(r.dirs, originDir, peerDir)
		if err := copyDir(e.hist, originDir); err != nil {
			return r, err
		}
		if err := copyDir(e.hist, peerDir); err != nil {
			return r, err
		}
	}
	var err error
	if r.store, err = storage.Open(originDir, storage.WithMetrics(r.reg)); err != nil {
		return r, err
	}
	if r.collector, err = infra.NewCollector(infra.PaperInventory()); err != nil {
		return r, err
	}
	logger := quietLogger()
	prov := obs.NewProvTable(obs.DefaultProvCap)
	r.broker = bus.NewBroker(bus.WithMetrics(r.reg))
	r.tip = tip.NewService(r.store, tip.WithBroker(r.broker), tip.WithLogger(logger),
		tip.WithMetrics(r.reg), tip.WithName("origin"), tip.WithProvenance(prov))
	r.deduper = dedup.New(dedup.WithMetrics(r.reg))
	r.corr = correlate.NewIncremental(correlate.WithMetrics(r.reg))
	r.classifier = textclass.New()
	r.engine = heuristic.NewEngine(heuristic.WithInfrastructure(r.collector),
		heuristic.WithMetrics(r.reg), heuristic.WithLogger(logger))
	r.subs = subscribe.NewEngine(subscribe.WithMetrics(r.reg), subscribe.WithLogger(logger))
	r.dash = dashboard.NewServer(r.collector, dashboard.WithMetrics(r.reg), dashboard.WithLogger(logger))
	r.dash.SetSubscriptions(subscribe.NewAPI(r.subs))
	r.taxii = taxii.NewServer("CAISP sharing", "caisp")
	r.taxii.AddCollection("eiocs", "Enriched IoCs", "eIoCs produced by the heuristic component", false)
	lcOpts := []lifecycle.Option{
		lifecycle.WithLogger(logger),
		lifecycle.WithMetrics(r.reg),
		lifecycle.WithSightings(r.corr.LastSightings),
		lifecycle.WithExpireHook(r.expire),
	}
	if e.s.lcBatch > 0 {
		lcOpts = append(lcOpts, lifecycle.WithBatchSize(e.s.lcBatch))
	}
	r.lifec = lifecycle.New(r.store, lcOpts...)
	if r.store.Len() > 0 {
		r.rebuild()
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < e.s.subs; i++ {
		if _, err := r.subs.Register(fmt.Sprintf("soc-%d", i/1000), subscriptionPattern(i, rng, e.gen)); err != nil {
			return r, err
		}
	}
	client := pollClient()
	for i := range e.gen.pools {
		r.fetchers = append(r.fetchers, &feed.HTTPFetcher{URL: e.gen.url(i), Client: client})
	}
	dashSrv, dashAddr, err := listen(r.dash)
	if err != nil {
		return r, err
	}
	r.servers = append(r.servers, dashSrv)
	tipSrv, tipAddr, err := listen(tip.NewAPI(r.tip, ""))
	if err != nil {
		return r, err
	}
	r.servers = append(r.servers, tipSrv)
	if r.dashWS, err = dialWS("ws://" + dashAddr + "/ws"); err != nil {
		return r, err
	}
	if r.matchWS, err = dialWS("ws://" + dashAddr + "/ws/matches"); err != nil {
		return r, err
	}
	r.sinks = newSinks(e.gen, r.tip.GetEvent)
	r.sinks.attach(r.dashWS, r.matchWS)
	for registered := time.Now(); r.dash.ClientCount() < 1 || r.subs.Watchers() < 1; time.Sleep(time.Millisecond) {
		if time.Since(registered) > 30*time.Second {
			return r, fmt.Errorf("sockets did not register (dashboard clients %d, match watchers %d)",
				r.dash.ClientCount(), r.subs.Watchers())
		}
	}
	if r.peer, err = newPeer(peerDir); err != nil {
		return r, err
	}
	if err := r.peer.connect(tipAddr, e.s.meshEvery, false); err != nil {
		return r, err
	}
	r.rec = newRecorder(traced)
	return r, nil
}

// rebuild seeds the correlator from the stored clusters as core.New does
// after a restart.
func (r *replica) rebuild() {
	type seed struct {
		uuid    string
		ts      time.Time
		members []normalize.Event
	}
	var mu sync.Mutex
	var seeds []seed
	r.store.ForEachParallel(0, func(e *misp.Event) {
		if m := correlate.MembersFromMISP(e); len(m) > 0 {
			mu.Lock()
			seeds = append(seeds, seed{e.UUID, e.Timestamp.Time, m})
			mu.Unlock()
		}
	})
	sort.Slice(seeds, func(i, j int) bool {
		if !seeds[i].ts.Equal(seeds[j].ts) {
			return seeds[i].ts.Before(seeds[j].ts)
		}
		return seeds[i].uuid < seeds[j].uuid
	})
	for _, s := range seeds {
		for _, stale := range r.corr.Seed(s.uuid, s.members) {
			_ = r.store.Delete(stale)
		}
	}
}

// expire is the lifecycle expiry hook, as core.Platform wires it.
func (r *replica) expire(uuid string) error {
	if err := r.tip.DeleteEvent(uuid); err != nil && !errors.Is(err, storage.ErrNotFound) {
		return err
	}
	r.dash.DropEventRIoCs(uuid)
	return nil
}

func (r *replica) close() {
	if r.dashWS != nil {
		r.dashWS.close()
	}
	if r.matchWS != nil {
		r.matchWS.close()
	}
	if r.sinks != nil {
		r.sinks.wg.Wait()
	}
	for _, s := range r.servers {
		_ = s.Close()
	}
	if r.peer != nil {
		r.peer.close()
	}
	if r.lifec != nil {
		r.lifec.Close()
	}
	if r.subs != nil {
		r.subs.Close()
	}
	if r.dash != nil {
		r.dash.Close()
	}
	if r.broker != nil {
		r.broker.Close()
	}
	if r.store != nil {
		_ = r.store.Close()
	}
	for _, d := range r.dirs {
		_ = os.RemoveAll(d)
	}
}

// replay drives the chain for length: a closed loop steps round after
// round; an open loop steps each version at its due time and spends the
// gaps on the periodic work, as the platform's goroutines would.
func (r *replica) replay(length time.Duration) error {
	s := r.e.s
	lcEvery := s.lcInterval
	if lcEvery <= 0 {
		lcEvery = lifecycleDefault
	}
	queryEvery := time.Duration(float64(time.Second) / replayQueryRate)
	if s.queryThink > 0 {
		queryEvery = s.queryThink
	}
	next := map[string]time.Duration{"mesh": s.meshEvery, "lifecycle": lcEvery, "query": 0}
	tasks := []string{"mesh", "lifecycle", "query"}
	every := map[string]time.Duration{"mesh": s.meshEvery, "lifecycle": lcEvery, "query": queryEvery}
	start := time.Now()
	periodic := func(until time.Duration) error {
		for {
			now := time.Since(start)
			task := ""
			for _, t := range tasks {
				if next[t] <= now && (task == "" || next[t] < next[task]) {
					task = t
				}
			}
			if task == "" {
				if now >= until {
					return nil
				}
				wake := until
				for _, t := range tasks {
					wake = min(wake, next[t])
				}
				id := r.rec.begin("core.idle", "")
				time.Sleep(wake - now)
				r.rec.end(id)
				r.n.idle += time.Since(start) - now
				continue
			}
			next[task] += every[task]
			if err := r.runTask(task); err != nil {
				return err
			}
		}
	}
	for v := 0; ; v++ {
		if s.closed {
			if time.Since(start) >= length {
				break
			}
		} else {
			due := time.Duration(v) * s.period
			if due >= length {
				break
			}
			if err := periodic(due); err != nil {
				return err
			}
		}
		if err := r.step(v); err != nil {
			return err
		}
		if s.closed {
			if err := periodic(0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *replica) runTask(task string) error {
	switch task {
	case "mesh":
		id := r.rec.begin("mesh.sync", "origin")
		_, err := r.peer.mesh.SyncOnce(context.Background())
		r.rec.end(id)
		r.n.syncs++
		return err
	case "lifecycle":
		id := r.rec.begin("lifecycle.pass", "")
		res, err := r.lifec.RunOnce(time.Now())
		r.rec.end(id)
		r.n.passes++
		r.n.expired += res.Expired
		return err
	default:
		return r.query()
	}
}

// query issues the analyst's next read against the TIP service: paged
// listing, search by a served value, fetch by UUID.
func (r *replica) query() error {
	r.n.queries++
	switch r.n.queries % 3 {
	case 0:
		id := r.rec.begin("tip.page", "")
		page, _, err := r.tip.EventsPage(time.Time{}, "", 20)
		r.rec.end(id)
		if len(page) > 0 {
			r.n.pageUUID = page[len(page)/2].UUID
		}
		return err
	case 1:
		v := r.e.gen.servedValue(r.rng.Intn(1 << 30))
		id := r.rec.begin("tip.search", v)
		_, err := r.tip.Search(tip.SearchQuery{Value: v})
		r.rec.end(id)
		return err
	default:
		if r.n.pageUUID == "" {
			return nil
		}
		id := r.rec.begin("tip.get", r.n.pageUUID)
		_, err := r.tip.GetEvent(r.n.pageUUID)
		r.rec.end(id)
		if errors.Is(err, storage.ErrNotFound) {
			return nil
		}
		return err
	}
}

// step publishes version v of every feed and runs it through the chain.
func (r *replica) step(v int) error {
	for i := range r.e.gen.pools {
		if err := r.e.gen.setVersion(i, v); err != nil {
			return err
		}
	}
	pending := r.collect()
	stored, err := r.flush(pending)
	if err != nil {
		return err
	}
	for _, me := range stored {
		if err := r.analyze(me); err != nil {
			return err
		}
	}
	return nil
}

// collect polls every feed once: fetch, parse and normalize, classify,
// dedup. It returns the admitted events.
func (r *replica) collect() []normalize.Event {
	root := r.rec.begin("core.collect", "")
	defer r.rec.end(root)
	var pending []normalize.Event
	for i, f := range r.fetchers {
		p := r.e.gen.pools[i].feed
		r.n.polls++
		id := r.rec.begin("feed.fetch", p.Name)
		data, notModified, err := f.Fetch(context.Background())
		r.rec.end(id)
		if err != nil {
			r.n.fetchErrors++
			continue
		}
		if notModified {
			continue
		}
		id = r.rec.begin("feed.parse", p.Name)
		recs, err := p.Parser.Parse(data)
		events := make([]normalize.Event, 0, len(recs))
		now := time.Now()
		for _, rec := range recs {
			category := p.Category
			if rec.Category != "" {
				category = rec.Category
			}
			ev, nerr := normalize.New(rec.Value, category, p.Name, normalize.SourceOSINT, now)
			if nerr != nil {
				continue
			}
			if len(rec.Context) > 0 {
				ev.Context = make(map[string]string, len(rec.Context))
				for k, v := range rec.Context {
					ev.Context[k] = v
				}
			}
			events = append(events, ev)
		}
		r.rec.end(id)
		if err != nil {
			r.n.fetchErrors++
			continue
		}
		r.n.records += len(events)
		id = r.rec.begin("textclass.classify", p.Name)
		for j := range events {
			r.classify(&events[j])
		}
		r.rec.end(id)
		id = r.rec.begin("dedup.offer", p.Name)
		for _, ev := range events {
			r.n.offered++
			if stored, isNew := r.deduper.Offer(ev); isNew {
				r.n.admitted++
				pending = append(pending, stored)
			}
		}
		r.rec.end(id)
	}
	return pending
}

// classify is core.Platform's unknown-category tagging.
func (r *replica) classify(e *normalize.Event) {
	if e.Category != normalize.CategoryUnknown {
		return
	}
	text := strings.TrimSpace(e.Context["description"] + " " + e.Context["event_info"])
	if text == "" {
		return
	}
	pred := r.classifier.Classify(text)
	if !pred.Relevant || pred.Confidence < 0.5 {
		return
	}
	e.Category = pred.Category
	if e.Context == nil {
		e.Context = make(map[string]string, 2)
	}
	e.Context["classified_as"] = pred.Category
	e.Context["classifier_confidence"] = strconv.FormatFloat(pred.Confidence, 'f', 2, 64)
	if normalize.Canonicalize(e) == nil {
		r.n.classified++
	}
}

// flush is core.Platform's composeAndStore.
func (r *replica) flush(events []normalize.Event) ([]*misp.Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	root := r.rec.begin("core.flush", "")
	defer r.rec.end(root)
	r.n.flushes++
	r.n.added += len(events)
	id := r.rec.begin("correlate.add", "")
	delta := r.corr.Add(events)
	r.rec.end(id)
	r.n.deltaClusters += len(delta.New) + len(delta.Updated)
	for _, uuid := range delta.Removed {
		id := r.rec.begin("tip.retract", uuid)
		err := r.tip.DeleteEvent(uuid)
		r.dash.DropEventRIoCs(uuid)
		r.rec.end(id)
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			return nil, err
		}
	}
	now := time.Now()
	batch := make([]*misp.Event, 0, len(delta.New)+len(delta.Updated))
	id = r.rec.begin("correlate.tomisp", "")
	for _, set := range [][]correlate.ComposedIoC{delta.New, delta.Updated} {
		for i := range set {
			me, err := correlate.ToMISP(&set[i], now)
			if err != nil {
				r.rec.end(id)
				return nil, err
			}
			batch = append(batch, me)
		}
	}
	r.rec.end(id)
	r.n.composed += len(batch)
	if len(batch) == 0 {
		return nil, nil
	}
	walBefore := r.store.Durability().WALBytes
	id = r.rec.begin("tip.commit", "")
	stored, err := r.tip.AddEvents(batch)
	r.rec.end(id)
	if err != nil {
		return nil, err
	}
	if walAfter := r.store.Durability().WALBytes; walAfter > walBefore {
		r.n.walBytes += walAfter - walBefore
	}
	r.n.batches++
	r.n.committed += len(stored)
	for _, me := range stored {
		r.evaluate(me, subscribe.StageCIoC, -1)
	}
	r.maybeCompact()
	return stored, nil
}

func (r *replica) evaluate(me *misp.Event, stage subscribe.Stage, score float64) {
	id := r.rec.begin("subscribe.eval", me.UUID)
	n := r.subs.EvaluateMISP(me, stage, score)
	r.rec.end(id)
	r.n.evaluated++
	if n > 0 {
		r.n.matched++
	}
}

func (r *replica) maybeCompact() {
	d := r.store.Durability()
	if d.WALOps <= compactAfterOps && d.WALBytes <= compactAfterBytes {
		return
	}
	id := r.rec.begin("storage.compact", "")
	err := r.store.Compact()
	r.rec.end(id)
	if err == nil {
		r.n.compactions++
	}
}

// analyze is core.Platform's analyze for one stored cluster.
func (r *replica) analyze(me *misp.Event) error {
	if !r.store.Has(me.UUID) {
		return nil
	}
	root := r.rec.begin("core.analyze", me.UUID)
	defer r.rec.end(root)
	id := r.rec.begin("heuristic.tostix", me.UUID)
	bundle, err := misp.ToSTIX(me)
	r.rec.end(id)
	if err != nil {
		return err
	}
	r.n.converted++
	now := time.Now()
	scored := 0
	top := 0.0
	for _, obj := range bundle.Objects {
		r.n.sdos++
		id := r.rec.begin("heuristic.evaluate", me.UUID)
		res, err := r.engine.Evaluate(obj)
		if err == nil {
			heuristic.Enrich(obj, res)
		}
		r.rec.end(id)
		if err != nil {
			continue
		}
		scored++
		top = max(top, res.Score)
		id = r.rec.begin("heuristic.reduce", me.UUID)
		rioc, err := heuristic.Reduce(obj, res, r.collector, now)
		r.rec.end(id)
		if err != nil {
			return err
		}
		if rioc != nil {
			id := r.rec.begin("dashboard.push", me.UUID)
			r.dash.PushRIoC(*rioc)
			r.rec.end(id)
			r.pushDone[r.dash.Revision()] = time.Now()
			r.n.riocs++
		}
		id = r.rec.begin("taxii.share", me.UUID)
		err = r.taxii.AddObjects("eiocs", obj)
		r.rec.end(id)
		if err != nil {
			return err
		}
	}
	r.n.scored += scored
	if scored == 0 {
		r.n.unscorable++
		return nil
	}
	heuristic.SetBaseScore(me, top, now)
	me.AddTag("caisp:eioc")
	id = r.rec.begin("tip.writeback", me.UUID)
	correlated, err := r.tip.AddEvent(me)
	r.rec.end(id)
	if err != nil {
		return err
	}
	r.n.writebacks++
	r.n.correlated += len(correlated)
	r.evaluate(me, subscribe.StageEIoC, top)
	r.maybeCompact()
	return nil
}

// runTraced replays the workload's inputs twice, untraced then traced,
// each for half the run, and reports the per-layer metrics of the traced
// replay.
func (e *env) runTraced(facts map[string]any) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	half := time.Duration(e.seconds) * time.Second / 2
	var rates [2]float64
	var r *replica
	for pass, traced := range []bool{false, true} {
		var err error
		r, err = e.newReplica(pass, traced)
		if err != nil {
			r.close()
			return res, err
		}
		if err := r.replay(half); err != nil {
			r.close()
			return res, err
		}
		work := r.rec.elapsed() - r.n.idle
		rates[pass] = float64(r.n.records) / work.Seconds()
		if pass == 0 {
			r.close()
		}
	}
	defer r.close()
	wall := r.rec.elapsed()
	facts["replay_records_per_busy_s"] = rates

	failures := r.settle()
	acc := account(r.rec.spans, wall)
	var selfSum time.Duration
	selfShare := make(map[string]float64)
	for name, d := range acc.self {
		selfSum += d
		selfShare[name] = d.Seconds() / wall.Seconds()
	}
	facts["self_time_share"] = selfShare
	facts["spans"] = len(r.rec.spans)
	if diff := (selfSum + acc.unattributed - wall).Seconds(); diff > 1e-3*wall.Seconds() || diff < -1e-3*wall.Seconds() {
		failures = append(failures, fmt.Sprintf("span accounting: self %.6fs + unattributed %.6fs != wall %.6fs",
			selfSum.Seconds(), acc.unattributed.Seconds(), wall.Seconds()))
	}
	traceDir := filepath.Join(filepath.Dir(e.runDir), "traces")
	if err := os.MkdirAll(traceDir, 0o755); err == nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", e.s.name, e.seed))
		if err := r.rec.write(path); err != nil {
			return res, err
		}
		facts["spans_file"] = path
	}

	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / float64(time.Millisecond)
		}
		return out
	}
	total := func(name string) float64 {
		var t time.Duration
		for _, d := range r.rec.durations(name) {
			t += d
		}
		return float64(t) / float64(time.Microsecond)
	}
	n := r.n
	f := func(n int) float64 { return float64(n) }
	fetch := summarize(ms(r.rec.durations("feed.fetch")))
	set("feed.fetch_ms_p50", fetch.P50, "ms")
	set("feed.fetch_ms_p99", fetch.Tail, "ms")
	set("feed.parse_us_per_record", ratio(total("feed.parse"), f(n.records)), "us")
	set("feed.records", f(n.records), "count")
	set("feed.errors", f(n.fetchErrors), "count")
	set("textclass.classify_us_per_record", ratio(total("textclass.classify"), f(n.records)), "us")
	set("dedup.offer_us_per_record", ratio(total("dedup.offer"), f(n.offered)), "us")
	set("dedup.admit_ratio", ratio(f(n.admitted), f(n.offered)), "ratio")
	set("correlate.add_ms_per_flush", ratio(total("correlate.add")/1e3, f(n.flushes)), "ms")
	set("correlate.events_per_flush", ratio(f(n.added), f(n.flushes)), "count")
	set("correlate.delta_ratio", ratio(f(n.deltaClusters), f(n.added)), "ratio")
	set("correlate.tomisp_us_per_cioc", ratio(total("correlate.tomisp"), f(n.composed)), "us")
	set("tip.commit_ms_per_batch", ratio(total("tip.commit")/1e3, f(n.batches)), "ms")
	set("tip.commit_events_per_batch", ratio(f(n.committed), f(n.batches)), "count")
	set("storage.wal_bytes_per_event", ratio(f(int(n.walBytes)), f(n.committed)), "B")
	set("storage.compactions", f(n.compactions), "count")
	set("storage.compact_ms", ratio(total("storage.compact")/1e3, f(n.compactions)), "ms")
	set("tip.writeback_us", ratio(total("tip.writeback"), f(n.writebacks)), "us")
	set("tip.correlated_per_writeback", ratio(f(n.correlated), f(n.writebacks)), "count")
	set("heuristic.tostix_us_per_event", ratio(total("heuristic.tostix"), f(n.converted)), "us")
	set("heuristic.evaluate_us_per_sdo", ratio(total("heuristic.evaluate"), f(n.sdos)), "us")
	set("heuristic.reduce_us_per_sdo", ratio(total("heuristic.reduce"), f(n.scored)), "us")
	set("heuristic.scored_ratio", ratio(f(n.scored), f(n.sdos)), "ratio")
	set("subscribe.eval_us_per_event", ratio(total("subscribe.eval"), f(n.evaluated)), "us")
	cand := r.subs.EvalSnapshot().Candidates
	candidates := 0.0
	if cand != nil {
		candidates = ratio(cand.Sum, f(int(cand.Count)))
	}
	set("subscribe.candidates_per_event", candidates, "count")
	set("subscribe.match_ratio", ratio(f(n.matched), f(n.evaluated)), "ratio")
	set("dashboard.push_us", ratio(total("dashboard.push"), f(n.riocs)), "us")
	gaps := r.deliverGaps()
	set("wsock.deliver_gap_ms_p99", summarize(gaps).Tail, "ms")
	set("wsock.evicted", sumSeries(r.reg, "caisp_wsock_evicted_total"), "count")
	sync := summarize(ms(r.rec.durations("mesh.sync")))
	totals := r.peer.mesh.Totals()
	set("mesh.sync_ms_p50", sync.P50, "ms")
	set("mesh.sync_ms_p99", sync.Tail, "ms")
	set("mesh.pulled_per_sync", ratio(f(int(totals.Pulled)), f(n.syncs)), "count")
	set("mesh.reimport_ratio", ratio(f(int(totals.Pulled-totals.Imported)), f(int(totals.Pulled))), "ratio")
	set("mesh.failures", f(int(totals.Errors)), "count")
	search := summarize(ms(r.rec.durations("tip.search")))
	page := summarize(ms(r.rec.durations("tip.page")))
	set("tip.search_us_p50", search.P50*1e3, "us")
	set("tip.search_us_p99", search.Tail*1e3, "us")
	set("tip.page_us_p50", page.P50*1e3, "us")
	set("tip.page_us_p99", page.Tail*1e3, "us")
	set("tip.get_us", mean(ms(r.rec.durations("tip.get")))*1e3, "us")
	set("lifecycle.pass_ms", ratio(total("lifecycle.pass")/1e3, f(n.passes)), "ms")
	set("lifecycle.expired_per_pass", ratio(f(n.expired), f(n.passes)), "count")
	set("core.unattributed_share", acc.unattributed.Seconds()/wall.Seconds(), "ratio")
	set("trace.overhead_share", 1-ratio(rates[1], rates[0]), "ratio")

	res.Attempted = int64(n.polls + n.batches + n.riocs + n.syncs + len(r.rec.durations("tip.page")) +
		len(r.rec.durations("tip.search")) + len(r.rec.durations("tip.get")))
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	res.Failed = int64(n.fetchErrors) + totals.Errors
	res.Correct = len(failures) == 0
	for _, msg := range failures {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	facts["check_failures"] = failures
	return res, nil
}

// settle waits for the sockets to deliver everything pushed, lets the
// peer catch up, and runs the output checks on the replayed state.
func (r *replica) settle() []string {
	var failures []string
	want := r.subs.Stats().Matches
	deadline := time.Now().Add(30 * time.Second)
	for {
		c := r.sinks.counts()
		if (c.riocFrames >= r.n.riocs && c.matches >= want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for tries := 0; r.peer.mesh.Cursor("origin").Seq < r.store.Seq() && tries < 100; tries++ {
		if _, err := r.peer.mesh.SyncOnce(context.Background()); err != nil {
			failures = append(failures, "final peer sync: "+err.Error())
			break
		}
	}
	served := r.e.gen.counts()
	if int64(r.n.records) != served.records {
		failures = append(failures, fmt.Sprintf("replay parsed %d records, feed server served %d", r.n.records, served.records))
	}
	if r.n.admitted != served.unique {
		failures = append(failures, fmt.Sprintf("replay admitted %d records, feed server served %d distinct", r.n.admitted, served.unique))
	}
	c := r.sinks.counts()
	dashFail, _ := checkDashboard(r.dash.RIoCs(), c.riocScore)
	failures = append(failures, dashFail...)
	matchFail, _ := checkMatches(want, c.matches)
	failures = append(failures, matchFail...)
	if eiocs, err := storedEIoCs(r.tip); err != nil {
		failures = append(failures, err.Error())
	} else {
		failures = append(failures, checkScores(eiocs, r.collector, r.e.seed)...)
	}
	originAll, err1 := r.store.All()
	peerAll, err2 := r.peer.store.All()
	if err := errors.Join(err1, err2); err != nil {
		return append(failures, err.Error())
	}
	replFail, _ := checkReplica(originAll, peerAll)
	return append(failures, replFail...)
}

// deliverGaps are the socket read times minus the moment the push call
// returned, for dashboard frames, and minus the hub submission stamp, for
// match frames.
func (r *replica) deliverGaps() []float64 {
	c := r.sinks.counts()
	gaps := append([]float64(nil), c.gapMS...)
	for seq, read := range c.seqRead {
		if pushed, ok := r.pushDone[seq]; ok {
			gaps = append(gaps, float64(read.Sub(pushed))/float64(time.Millisecond))
		}
	}
	return gaps
}

// sumSeries adds every sample of the named counter family.
func sumSeries(reg *obs.Registry, family string) float64 {
	sum := 0.0
	for key, v := range scrapeWith(reg, []string{family}) {
		if f, ok := v.(float64); ok && strings.HasPrefix(key, family) {
			sum += f
		}
	}
	return sum
}
