package stixpattern

// Benchmarks for the compile-once satellite: parsed patterns carry their
// LIKE/MATCHES regexp on the AST node, so evaluation no longer rebuilds and
// recompiles it per call. The *Recompile variants pin the legacy cost by
// evaluating hand-built Comparisons (nil matcher → ad-hoc compilation),
// which is exactly the pre-fix per-evaluation path.

import "testing"

var benchSink bool

func benchEvalPattern(b *testing.B, p *Pattern, o Observation) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := p.MatchOne(o)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ok
	}
}

func BenchmarkSubsEvalLikePrecompiled(b *testing.B) {
	p, err := Parse("[url:value LIKE '%/malware-kit/%_payload.bin']")
	if err != nil {
		b.Fatal(err)
	}
	benchEvalPattern(b, p, obs(map[string][]string{
		"url:value": {"http://cdn.example/malware-kit/x_payload.bin"},
	}))
}

func BenchmarkSubsEvalLikeRecompile(b *testing.B) {
	p := &Pattern{Root: ObsTest{Expr: Comparison{
		Path: "url:value", Op: OpLike,
		Values: []Literal{StringLit("%/malware-kit/%_payload.bin")},
	}}}
	benchEvalPattern(b, p, obs(map[string][]string{
		"url:value": {"http://cdn.example/malware-kit/x_payload.bin"},
	}))
}

func BenchmarkSubsEvalMatchesPrecompiled(b *testing.B) {
	p, err := Parse("[domain-name:value MATCHES '^(evil|bad|mal)[a-z0-9-]*\\\\.example$']")
	if err != nil {
		b.Fatal(err)
	}
	benchEvalPattern(b, p, obs(map[string][]string{
		"domain-name:value": {"malvertising-7.example"},
	}))
}

func BenchmarkSubsEvalMatchesRecompile(b *testing.B) {
	p := &Pattern{Root: ObsTest{Expr: Comparison{
		Path: "domain-name:value", Op: OpMatches,
		Values: []Literal{StringLit(`^(evil|bad|mal)[a-z0-9-]*\.example$`)},
	}}}
	benchEvalPattern(b, p, obs(map[string][]string{
		"domain-name:value": {"malvertising-7.example"},
	}))
}

// One ISSUBSET comparison against a literal compiled at parse time into a
// netip-backed network: the observed value is parsed without allocating.
// The Legacy variant runs the net.ParseCIDR/net.ParseIP implementation
// that re-parsed both operands on every comparison (the differential-test
// oracle).
func BenchmarkSubsEvalCIDRPrecompiled(b *testing.B) {
	p, err := Parse("[ipv4-addr:value ISSUBSET '192.0.2.0/24']")
	if err != nil {
		b.Fatal(err)
	}
	cmp := p.Root.(ObsTest).Expr.(Comparison)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := cmp.compareValue("192.0.2.77")
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ok
	}
}

func BenchmarkSubsEvalCIDRLegacy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := legacyCIDRContains("192.0.2.0/24", "192.0.2.77")
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ok
	}
}
