package main

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"

	"github.com/caisplatform/caisp/internal/obs"
)

// scrapeFamilies are the platform's own histograms and mesh families the
// untraced run stores beside the traced split, as a second view of where
// time went. Nothing gates on them.
var scrapeFamilies = []string{
	"caisp_pipeline_flush_seconds",
	"caisp_pipeline_analyze_seconds",
	"caisp_trace_stage_seconds",
	"caisp_subs_eval_seconds",
	"caisp_wsock_push_seconds",
	"caisp_mesh_",
}

// histView summarizes one histogram series from its buckets.
type histView struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50_le"`
	P99   float64 `json:"p99_le"`

	les    []float64
	counts []float64
}

// scrape renders reg and keeps the selected families: plain series by
// their full name and labels, histograms as count, sum and the bucket
// bounds holding the median and the 99th percentile.
func scrape(reg *obs.Registry) map[string]any { return scrapeWith(reg, scrapeFamilies) }

// scrapeWith is scrape for the families starting with any of prefixes.
func scrapeWith(reg *obs.Registry, prefixes []string) map[string]any {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return map[string]any{"error": err.Error()}
	}
	out := make(map[string]any)
	hists := make(map[string]*histView)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || !selected(line, prefixes) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			continue
		}
		name, labels := splitSeries(series)
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, rest := takeLabel(labels, "le")
			h := histFor(hists, strings.TrimSuffix(name, "_bucket")+rest)
			bound, _ := strconv.ParseFloat(le, 64)
			h.les = append(h.les, bound)
			h.counts = append(h.counts, v)
		case strings.HasSuffix(name, "_sum") && hasHist(hists, strings.TrimSuffix(name, "_sum")+labels):
			histFor(hists, strings.TrimSuffix(name, "_sum")+labels).Sum = v
		case strings.HasSuffix(name, "_count") && hasHist(hists, strings.TrimSuffix(name, "_count")+labels):
			histFor(hists, strings.TrimSuffix(name, "_count")+labels).Count = v
		default:
			out[series] = v
		}
	}
	for key, h := range hists {
		h.P50, h.P99 = bucketQuantile(h, 0.5), bucketQuantile(h, 0.99)
		out[key] = h
	}
	return out
}

func selected(line string, prefixes []string) bool {
	for _, f := range prefixes {
		if strings.HasPrefix(line, f) {
			return true
		}
	}
	return false
}

func splitSeries(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// takeLabel removes label key from a {a="b",…} set, returning its value
// and the remaining set.
func takeLabel(labels, key string) (string, string) {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var keep []string
	val := ""
	for _, kv := range strings.Split(inner, ",") {
		if v, ok := strings.CutPrefix(kv, key+"="); ok {
			val = strings.Trim(v, `"`)
			continue
		}
		if kv != "" {
			keep = append(keep, kv)
		}
	}
	if len(keep) == 0 {
		return val, ""
	}
	return val, "{" + strings.Join(keep, ",") + "}"
}

func histFor(m map[string]*histView, key string) *histView {
	h := m[key]
	if h == nil {
		h = &histView{}
		m[key] = h
	}
	return h
}

func hasHist(m map[string]*histView, key string) bool { _, ok := m[key]; return ok }

// bucketQuantile returns the upper bound of the bucket holding quantile q.
func bucketQuantile(h *histView, q float64) float64 {
	if len(h.counts) == 0 {
		return 0
	}
	total := h.counts[len(h.counts)-1]
	if total == 0 {
		return 0
	}
	for i, c := range h.counts {
		if c >= q*total {
			if math.IsInf(h.les[i], 1) && i > 0 {
				return h.les[i-1]
			}
			return h.les[i]
		}
	}
	return h.les[len(h.les)-1]
}
