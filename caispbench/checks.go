package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/tip"
)

// scoreSample is how many stored eIoCs a run re-scores.
const scoreSample = 40

// checkPipeline compares the platform's counters at quiescence with what
// the feed server handed out: every served record was collected, every
// distinct one admitted once, no store failed, and every stored cluster
// revision was scored, found unscorable, or retracted by a merge or an
// expiry before its analysis ran.
func checkPipeline(st core.Stats, served serverCounts, expired int64) []string {
	var out []string
	if int64(st.EventsCollected) != served.records {
		out = append(out, fmt.Sprintf("collected %d records, feed server served %d", st.EventsCollected, served.records))
	}
	if st.EventsUnique != served.unique {
		out = append(out, fmt.Sprintf("admitted %d unique records, feed server served %d distinct", st.EventsUnique, served.unique))
	}
	if st.StoreFailures != 0 {
		out = append(out, fmt.Sprintf("%d store failures", st.StoreFailures))
	}
	stored := int64(st.CIoCs + st.ClusterEdits)
	done := int64(st.EIoCs + st.Unscorable)
	if gap := stored - done; gap < 0 || gap > int64(st.ClusterMerges)+expired {
		out = append(out, fmt.Sprintf("eiocs %d + unscorable %d vs ciocs %d + cluster edits %d (merges %d, expired %d)",
			st.EIoCs, st.Unscorable, st.CIoCs, st.ClusterEdits, st.ClusterMerges, expired))
	}
	return out
}

// checkDashboard verifies every rIoC the dashboard holds arrived on the
// socket with the same score. It returns the failures and the number of
// missing frames.
func checkDashboard(riocs []heuristic.RIoC, got map[string]float64) ([]string, int) {
	var out []string
	missing := 0
	for _, r := range riocs {
		score, ok := got[r.EventUUID+"\x00"+r.ID]
		switch {
		case !ok:
			missing++
		case score != r.ThreatScore:
			out = append(out, fmt.Sprintf("rIoC %s of %s: socket score %v, dashboard %v", r.ID, r.EventUUID, score, r.ThreatScore))
		}
	}
	if missing > 0 {
		out = append(out, fmt.Sprintf("%d of %d dashboard rIoCs never arrived on /ws", missing, len(riocs)))
	}
	return out, missing
}

// checkMatches verifies every match the engine counted arrived on
// /ws/matches. It returns the failures and the number of missing matches.
func checkMatches(counted, received int64) ([]string, int64) {
	if counted == received {
		return nil, 0
	}
	miss := counted - received
	if miss < 0 {
		miss = -miss
	}
	return []string{fmt.Sprintf("subscription engine counted %d matches, /ws/matches carried %d", counted, received)}, miss
}

// checkScores re-scores a fixed sample of stored eIoCs with misp.ToSTIX
// and a fresh heuristic engine at the instant the score was written, and
// compares with the stored score.
func checkScores(eiocs []*misp.Event, collector *infra.Collector, seed int64) []string {
	var out []string
	if len(eiocs) == 0 {
		return []string{"no stored eIoC to re-score"}
	}
	stride := max(1, len(eiocs)/scoreSample)
	start := int(seed % int64(stride))
	if start < 0 {
		start += stride
	}
	for i := start; i < len(eiocs); i += stride {
		e := eiocs[i]
		stored, ok := heuristic.BaseScoreOf(e)
		if !ok {
			out = append(out, fmt.Sprintf("eIoC %s has no stored score", e.UUID))
			continue
		}
		score, err := rescore(e, collector)
		if err != nil {
			out = append(out, fmt.Sprintf("eIoC %s: %v", e.UUID, err))
			continue
		}
		if math.Abs(score-stored) > 5e-4 {
			out = append(out, fmt.Sprintf("eIoC %s: stored score %.4f, recomputed %.4f", e.UUID, stored, score))
		}
	}
	return out
}

// rescore recomputes an eIoC's threat score as the analyzer did: on the
// cluster revision without the analyzer's and the lifecycle's additions.
func rescore(e *misp.Event, collector *infra.Collector) (float64, error) {
	c := e.Clone()
	var at time.Time
	attrs := c.Attributes[:0]
	for _, a := range c.Attributes {
		if a.Type == "comment" && strings.HasPrefix(a.Value, heuristic.ScorePrefix) {
			at = a.Timestamp.Time
			continue
		}
		if a.Type == "comment" && strings.HasPrefix(a.Value, heuristic.DecayedScorePrefix) {
			continue
		}
		attrs = append(attrs, a)
	}
	c.Attributes = attrs
	tags := c.Tags[:0]
	for _, t := range c.Tags {
		if t.Name != "caisp:eioc" {
			tags = append(tags, t)
		}
	}
	c.Tags = tags
	bundle, err := misp.ToSTIX(c)
	if err != nil {
		return 0, err
	}
	eng := heuristic.NewEngine(heuristic.WithInfrastructure(collector),
		heuristic.WithNow(func() time.Time { return at }))
	top := 0.0
	for _, obj := range bundle.Objects {
		res, err := eng.Evaluate(obj)
		if err != nil {
			continue
		}
		top = math.Max(top, res.Score)
	}
	return top, nil
}

// checkReplica verifies the peer holds exactly the origin's (uuid,
// revision) set, deletions included; an event's revision is its MISP
// timestamp in the wire's whole seconds, the identity the mesh resolves
// conflicts by. It also returns
// how many events hold the same revision with different content, which
// the revision identity cannot see (reported, not gated).
func checkReplica(originEvents, peerEvents []*misp.Event) ([]string, int) {
	want := make(map[string]*misp.Event, len(originEvents))
	for _, e := range originEvents {
		want[e.UUID] = e
	}
	var out []string
	extra, diverged := 0, 0
	for _, e := range peerEvents {
		o, ok := want[e.UUID]
		switch {
		case !ok:
			extra++
		case o.Timestamp.Unix() != e.Timestamp.Unix():
			out = append(out, fmt.Sprintf("event %s: origin revision %d, peer %d", e.UUID, o.Timestamp.Unix(), e.Timestamp.Unix()))
		case contentOf(o) != contentOf(e):
			diverged++
		}
		delete(want, e.UUID)
	}
	if extra > 0 {
		out = append(out, fmt.Sprintf("peer holds %d events the origin deleted or never had", extra))
	}
	if len(want) > 0 {
		out = append(out, fmt.Sprintf("peer lacks %d origin events", len(want)))
	}
	if len(out) > 5 {
		out = append(out[:5], fmt.Sprintf("… %d more replica differences", len(out)-5))
	}
	return out, diverged
}

// contentOf fingerprints what an analyst reads off a revision: its
// attribute count and threat scores.
func contentOf(e *misp.Event) string {
	score, _ := heuristic.BaseScoreOf(e)
	decayed, _ := heuristic.DecayedScoreOf(e)
	return fmt.Sprintf("%d/%.4f/%.4f", len(e.Attributes), score, decayed)
}

// storedEIoCs lists the origin's scored events in UUID order.
func storedEIoCs(svc *tip.Service) ([]*misp.Event, error) {
	return svc.Search(tip.SearchQuery{Tag: "caisp:eioc"})
}
