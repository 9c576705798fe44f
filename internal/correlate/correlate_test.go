package correlate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

var seen = time.Date(2019, 6, 24, 10, 0, 0, 0, time.UTC)

func ev(t testing.TB, value, category string) normalize.Event {
	t.Helper()
	e, err := normalize.New(value, category, "feed", normalize.SourceOSINT, seen)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestUnionFindBasics(t *testing.T) {
	uf := newUnionFind()
	uf.union("a", "b")
	uf.union("c", "d")
	if !uf.connected("a", "b") || !uf.connected("c", "d") {
		t.Fatal("direct unions not connected")
	}
	if uf.connected("a", "c") {
		t.Fatal("independent sets connected")
	}
	uf.union("b", "c")
	if !uf.connected("a", "d") {
		t.Fatal("transitive union not connected")
	}
	comps := uf.components()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
}

func TestUnionFindQuickInvariants(t *testing.T) {
	// Property: after a random sequence of unions, connectivity is an
	// equivalence relation consistent with components().
	f := func(pairs []struct{ A, B uint8 }) bool {
		uf := newUnionFind()
		for _, p := range pairs {
			uf.union(fmt.Sprint(p.A%16), fmt.Sprint(p.B%16))
		}
		comps := uf.components()
		for root, members := range comps {
			for _, m := range members {
				if uf.find(m) != root {
					return false
				}
			}
		}
		// Reflexive + symmetric spot check.
		for _, p := range pairs {
			a, b := fmt.Sprint(p.A%16), fmt.Sprint(p.B%16)
			if !uf.connected(a, a) || uf.connected(a, b) != uf.connected(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelateGroupsByCategory(t *testing.T) {
	events := []normalize.Event{
		ev(t, "a.example", normalize.CategoryMalwareDomain),
		ev(t, "b.example", normalize.CategoryPhishing),
	}
	out := New().Correlate(events)
	if len(out) != 2 {
		t.Fatalf("got %d cIoCs, want 2 (different categories never merge)", len(out))
	}
	if out[0].Category == out[1].Category {
		t.Fatal("categories collapsed")
	}
}

func TestCorrelateConnectsSharedHost(t *testing.T) {
	events := []normalize.Event{
		ev(t, "evil.example", normalize.CategoryMalwareDomain),
		ev(t, "http://evil.example/dropper", normalize.CategoryMalwareDomain),
		ev(t, "unrelated.other", normalize.CategoryMalwareDomain),
	}
	out := New().Correlate(events)
	if len(out) != 2 {
		t.Fatalf("got %d cIoCs, want 2", len(out))
	}
	var big ComposedIoC
	for _, c := range out {
		if len(c.Events) == 2 {
			big = c
		}
	}
	if len(big.Events) != 2 {
		t.Fatalf("no 2-member cluster found: %+v", out)
	}
	if len(big.CorrelationKeys) == 0 {
		t.Fatal("cluster has no explaining correlation keys")
	}
	found := false
	for _, k := range big.CorrelationKeys {
		if k == "host:evil.example" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected host key, got %v", big.CorrelationKeys)
	}
}

func TestCorrelateConnectsSubdomainsViaRegisteredDomain(t *testing.T) {
	events := []normalize.Event{
		ev(t, "c2.evil.example", normalize.CategoryBotnetC2),
		ev(t, "drop.evil.example", normalize.CategoryBotnetC2),
	}
	out := New().Correlate(events)
	if len(out) != 1 || len(out[0].Events) != 2 {
		t.Fatalf("subdomains not correlated: %+v", out)
	}
}

func TestCorrelateConnectsSameSubnet(t *testing.T) {
	events := []normalize.Event{
		ev(t, "203.0.113.7", normalize.CategoryScanner),
		ev(t, "203.0.113.200", normalize.CategoryScanner),
		ev(t, "198.51.100.1", normalize.CategoryScanner),
	}
	out := New().Correlate(events)
	if len(out) != 2 {
		t.Fatalf("got %d cIoCs, want 2 (two /24 groups)", len(out))
	}
}

func TestCorrelateContextKeys(t *testing.T) {
	a := ev(t, "alpha.example", normalize.CategoryMalwareDomain)
	a.Context = map[string]string{"malware": "Emotet"}
	b, err := normalize.New("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
		normalize.CategoryMalwareDomain, "feed2", normalize.SourceOSINT, seen)
	if err != nil {
		t.Fatal(err)
	}
	b.Context = map[string]string{"malware": "emotet"} // case-insensitive
	out := New().Correlate([]normalize.Event{a, b})
	if len(out) != 1 || len(out[0].Events) != 2 {
		t.Fatalf("context correlation failed: %+v", out)
	}
}

func TestCorrelateMinClusterSize(t *testing.T) {
	events := []normalize.Event{
		ev(t, "lonely.example", normalize.CategoryMalwareDomain),
		ev(t, "pair.example", normalize.CategoryMalwareDomain),
		ev(t, "http://pair.example/x", normalize.CategoryMalwareDomain),
	}
	out := New(WithMinClusterSize(2)).Correlate(events)
	if len(out) != 1 {
		t.Fatalf("got %d cIoCs, want only the pair", len(out))
	}
	if len(out[0].Events) != 2 {
		t.Fatalf("cluster size = %d", len(out[0].Events))
	}
	// Degenerate option value falls back to 1.
	out = New(WithMinClusterSize(0)).Correlate(events)
	if len(out) != 2 {
		t.Fatalf("min size 0: got %d cIoCs, want 2", len(out))
	}
}

func TestCorrelateDeterministic(t *testing.T) {
	events := []normalize.Event{
		ev(t, "a.example", normalize.CategoryMalwareDomain),
		ev(t, "http://a.example/1", normalize.CategoryMalwareDomain),
		ev(t, "203.0.113.9", normalize.CategoryScanner),
		ev(t, "203.0.113.77", normalize.CategoryScanner),
	}
	first := New().Correlate(events)
	// Same events, different order.
	shuffled := []normalize.Event{events[3], events[1], events[0], events[2]}
	second := New().Correlate(shuffled)
	if !reflect.DeepEqual(ids(first), ids(second)) {
		t.Fatalf("correlation not order-independent:\n%v\n%v", ids(first), ids(second))
	}
}

func ids(cs []ComposedIoC) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

func TestComposedIoCWindowAndAccessors(t *testing.T) {
	a := ev(t, "evil.example", normalize.CategoryMalwareDomain)
	a.FirstSeen = seen.Add(-time.Hour)
	a.LastSeen = seen.Add(-time.Hour)
	b := ev(t, "http://evil.example/x", normalize.CategoryMalwareDomain)
	b.FirstSeen = seen.Add(2 * time.Hour)
	b.LastSeen = seen.Add(2 * time.Hour)
	out := New().Correlate([]normalize.Event{a, b})
	if len(out) != 1 {
		t.Fatalf("want single cluster, got %d", len(out))
	}
	c := out[0]
	if !c.FirstSeen.Equal(seen.Add(-time.Hour)) || !c.LastSeen.Equal(seen.Add(2*time.Hour)) {
		t.Fatalf("window wrong: %v – %v", c.FirstSeen, c.LastSeen)
	}
	if got := c.Values(normalize.TypeDomain); len(got) != 1 || got[0] != "evil.example" {
		t.Fatalf("Values(domain) = %v", got)
	}
	if got := c.Sources(); len(got) != 1 || got[0] != "feed" {
		t.Fatalf("Sources() = %v", got)
	}
}

func TestCorrelationKeysPerType(t *testing.T) {
	tests := []struct {
		value   string
		wantKey string
	}{
		{value: "evil.example", wantKey: "host:evil.example"},
		{value: "203.0.113.7", wantKey: "ip:203.0.113.7"},
		{value: "203.0.113.7", wantKey: "net24:203.0.113.0"},
		{value: "http://evil.example/x", wantKey: "host:evil.example"},
		{value: "user@evil.example", wantKey: "host:evil.example"},
		{value: "CVE-2017-9805", wantKey: "cve:CVE-2017-9805"},
		{value: "dropper.exe", wantKey: "filename:dropper.exe"},
	}
	for _, tt := range tests {
		e := ev(t, tt.value, normalize.CategoryUnknown)
		keys := CorrelationKeys(e)
		found := false
		for _, k := range keys {
			if k == tt.wantKey {
				found = true
			}
		}
		if !found {
			t.Errorf("CorrelationKeys(%q) = %v, missing %q", tt.value, keys, tt.wantKey)
		}
	}
}

func TestToMISP(t *testing.T) {
	events := []normalize.Event{
		ev(t, "evil.example", normalize.CategoryMalwareDomain),
		ev(t, "http://evil.example/mal", normalize.CategoryMalwareDomain),
	}
	out := New().Correlate(events)
	if len(out) != 1 {
		t.Fatalf("want single cluster, got %d", len(out))
	}
	me, err := ToMISP(&out[0], seen)
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Validate(); err != nil {
		t.Fatalf("composed MISP event invalid: %v", err)
	}
	if me.UUID != out[0].ID {
		t.Fatalf("event uuid %s, want cIoC id %s", me.UUID, out[0].ID)
	}
	if !me.HasTag("caisp:cioc") || !me.HasTag("caisp:category=\""+normalize.CategoryMalwareDomain+"\"") {
		t.Fatalf("tags missing: %+v", me.Tags)
	}
	if got := me.FindAttribute("domain"); got == nil || got.Value != "evil.example" {
		t.Fatalf("domain attribute missing: %+v", me.Attributes)
	}
	if got := me.FindAttribute("url"); got == nil {
		t.Fatal("url attribute missing")
	}
}

func TestToMISPCVEWithVector(t *testing.T) {
	e := ev(t, "CVE-2017-9805", normalize.CategoryVulnExploit)
	e.Context = map[string]string{"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"}
	out := New().Correlate([]normalize.Event{e})
	me, err := ToMISP(&out[0], seen)
	if err != nil {
		t.Fatal(err)
	}
	if got := me.FindAttribute("vulnerability"); got == nil || got.Value != "CVE-2017-9805" {
		t.Fatalf("vulnerability attribute missing: %+v", me.Attributes)
	}
	if got := me.FindAttribute("cvss-vector"); got == nil {
		t.Fatal("cvss vector attribute missing")
	}
}

// TestToMISPStableAttributeUUIDs: recomposing a grown cluster keeps every
// surviving member's attribute UUIDs, and no two attributes of one event
// share a UUID, even when a member carries several of one type.
func TestToMISPStableAttributeUUIDs(t *testing.T) {
	cve := func(id string) normalize.Event {
		e := ev(t, id, normalize.CategoryVulnExploit)
		e.Context = map[string]string{
			"campaign":      "op-wave",
			"cvss-vector":   "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
			"os":            "debian",
			"products":      "apache struts",
			"references":    "https://a.example/1, https://a.example/2",
			"classified_as": "exploit",
		}
		return e
	}
	inc := NewIncremental()
	d1 := inc.Add([]normalize.Event{cve("CVE-2017-9805")})
	d2 := inc.Add([]normalize.Event{cve("CVE-2017-5638")})
	if len(d1.New) != 1 || len(d2.Updated) != 1 || d2.Updated[0].ID != d1.New[0].ID {
		t.Fatalf("deltas = %+v then %+v, want one cluster grown", d1, d2)
	}
	before, err := ToMISP(&d1.New[0], seen)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ToMISP(&d2.Updated[0], seen.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := after.Validate(); err != nil {
		t.Fatalf("grown event invalid: %v", err)
	}
	uuids := func(me *misp.Event) map[string]string {
		out := make(map[string]string, len(me.Attributes))
		for _, a := range me.Attributes {
			if prev, dup := out[a.UUID]; dup {
				t.Fatalf("attributes %q and %q share UUID %s", prev, a.Value, a.UUID)
			}
			out[a.UUID] = a.Value
		}
		return out
	}
	old, grown := uuids(before), uuids(after)
	if len(old) != 7 || len(grown) != 2*len(old) {
		t.Fatalf("attributes = %d then %d, want 7 then 14", len(old), len(grown))
	}
	for id, value := range old {
		if grown[id] != value {
			t.Fatalf("attribute %q lost UUID %s in the grown cluster", value, id)
		}
	}
	// Another cluster holding the same member gets its own UUIDs.
	other := d1.New[0]
	other.ID = "00000000-0000-4000-8000-000000000001"
	elsewhere, err := ToMISP(&other, seen)
	if err != nil {
		t.Fatal(err)
	}
	for id := range uuids(elsewhere) {
		if _, clash := old[id]; clash {
			t.Fatalf("attribute UUID %s repeated across clusters", id)
		}
	}
}

func TestToMISPEmptyFails(t *testing.T) {
	if _, err := ToMISP(&ComposedIoC{ID: "x"}, seen); err == nil {
		t.Fatal("empty cIoC converted")
	}
}

func TestCorrelateTimeWindow(t *testing.T) {
	early := ev(t, "evil.example", normalize.CategoryMalwareDomain)
	early.FirstSeen, early.LastSeen = seen, seen
	mid := ev(t, "http://evil.example/a", normalize.CategoryMalwareDomain)
	mid.FirstSeen, mid.LastSeen = seen.Add(time.Hour), seen.Add(time.Hour)
	late := ev(t, "http://evil.example/b", normalize.CategoryMalwareDomain)
	late.FirstSeen, late.LastSeen = seen.Add(100*time.Hour), seen.Add(100*time.Hour)
	events := []normalize.Event{early, mid, late}

	// Without a window all three share the host key → one cluster.
	if got := New().Correlate(events); len(got) != 1 {
		t.Fatalf("unwindowed clusters = %d", len(got))
	}
	// With a 2h window the late URL is disconnected.
	windowed := New(WithTimeWindow(2 * time.Hour)).Correlate(events)
	if len(windowed) != 2 {
		t.Fatalf("windowed clusters = %d, want 2", len(windowed))
	}
	sizes := []int{len(windowed[0].Events), len(windowed[1].Events)}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("cluster sizes = %v", sizes)
	}
	// Chaining: sightings 1h apart repeatedly stay connected across a
	// total span exceeding the window.
	var chain []normalize.Event
	for i := 0; i < 5; i++ {
		e := ev(t, fmt.Sprintf("http://evil.example/p%d", i), normalize.CategoryMalwareDomain)
		e.FirstSeen = seen.Add(time.Duration(i) * time.Hour)
		e.LastSeen = e.FirstSeen
		chain = append(chain, e)
	}
	if got := New(WithTimeWindow(90 * time.Minute)).Correlate(chain); len(got) != 1 {
		t.Fatalf("chained clusters = %d, want 1", len(got))
	}
}
