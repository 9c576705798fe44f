package stixpattern

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
)

// legacyCIDRContains is the net.ParseCIDR/net.ParseIP implementation the
// evaluator used before ISSUBSET/ISSUPERSET literals were compiled at
// parse time. It is kept here as the oracle of the differential tests.
func legacyCIDRContains(outer, inner string) (bool, error) {
	_, outerNet, err := legacyParseCIDRish(outer)
	if err != nil {
		return false, err
	}
	innerIP, innerNet, err := legacyParseCIDRish(inner)
	if err != nil {
		return false, err
	}
	if !outerNet.Contains(innerIP) {
		return false, nil
	}
	outerOnes, _ := outerNet.Mask.Size()
	innerOnes, _ := innerNet.Mask.Size()
	return innerOnes >= outerOnes, nil
}

func legacyParseCIDRish(s string) (net.IP, *net.IPNet, error) {
	if strings.ContainsRune(s, '/') {
		ip, ipnet, err := net.ParseCIDR(s)
		if err != nil {
			return nil, nil, fmt.Errorf("stixpattern: bad CIDR %q: %w", s, err)
		}
		return ip, ipnet, nil
	}
	ip := net.ParseIP(s)
	if ip == nil {
		return nil, nil, fmt.Errorf("stixpattern: bad IP %q", s)
	}
	bits := 32
	if ip.To4() == nil {
		bits = 128
	}
	return ip, &net.IPNet{IP: ip, Mask: net.CIDRMask(bits, bits)}, nil
}

// cidrOperands covers IPv4, IPv6, bare IPs, IPv4-mapped IPv6 (bare, as a
// network keeping the mapping and as one cutting into it), prefix-length
// edge cases and malformed values.
var cidrOperands = []string{
	// IPv4
	"10.0.0.0/8", "10.1.2.3", "10.1.2.3/32", "10.1.0.0/16", "10.1.2.3/16",
	"0.0.0.0/0", "11.0.0.1", "192.0.2.255", "10.0.0.0/024", "10.1.2.3/0032",
	// IPv6
	"2001:db8::/32", "2001:db8::1", "2001:db8::1/128", "2001:db8:1::/48",
	"::/0", "::1", "::", "::/96", "::a01:203", "2001:db9::1", "::ffff:0:0:0/96",
	// IPv4-mapped IPv6
	"::ffff:10.1.2.3", "::ffff:a01:203", "::ffff:10.0.0.0/104", "::ffff:10.1.2.3/96",
	"::ffff:0:0/96", "::ffff:10.1.2.3/120", "::ffff:10.1.2.3/128", "::ffff:10.1.2.3/64",
	"::ffff:10.1.2.3/95", "::ffff:10.1.2.3/0", "::fffe:a01:203",
	// malformed
	"", "/", "/8", "10.0.0.0/", "not-an-ip", "10.0.0.0/33", "2001:db8::/129",
	"10.0.0.0/8/8", "10.0.0.0/-1", "10.0.0.0/+8", "10.0.0.0/ 8", "1.2.3",
	"10.0.0.256", " 10.0.0.1", "10.0.0.1 ", "fe80::1%eth0", "fe80::1%eth0/64",
	"010.0.0.1", "10.0.0.0/99999999", "::ffff:10.0.0.0/129", "1.2.3.4.5",
}

// randomCIDROperand draws an address of a random family, bare or with a
// random prefix length that may overshoot or carry leading zeros.
func randomCIDROperand(r *rand.Rand) string {
	var addr string
	switch r.Intn(3) {
	case 0:
		addr = fmt.Sprintf("%d.%d.%d.%d", r.Intn(4)*64, r.Intn(256), r.Intn(256), r.Intn(256))
	case 1:
		addr = fmt.Sprintf("2001:db8:%x::%x", r.Intn(4), r.Intn(1<<16))
	default:
		addr = fmt.Sprintf("::ffff:%d.%d.%d.%d", r.Intn(4)*64, r.Intn(256), r.Intn(256), r.Intn(256))
	}
	switch r.Intn(4) {
	case 0:
		return addr
	case 1:
		return fmt.Sprintf("%s/0%d", addr, r.Intn(140))
	default:
		return fmt.Sprintf("%s/%d", addr, r.Intn(140))
	}
}

// checkAgainstLegacy compares every evaluation path for one operand pair
// with the legacy oracle: cidrContains, and parsed ISSUBSET/ISSUPERSET
// patterns whose literal is compiled at parse time. It returns the
// oracle's verdict.
func checkAgainstLegacy(t *testing.T, outer, inner string) bool {
	t.Helper()
	want, wantErr := legacyCIDRContains(outer, inner)
	got, err := cidrContains(outer, inner)
	if (err != nil) != (wantErr != nil) || got != want {
		t.Fatalf("cidrContains(%q, %q) = %v, %v; legacy = %v, %v", outer, inner, got, err, want, wantErr)
	}
	for _, tc := range []struct{ op, literal, value string }{
		{OpIsSubset, outer, inner},
		{OpIsSuperset, inner, outer},
	} {
		src := fmt.Sprintf("[x:y %s %s]", tc.op, StringLit(tc.literal))
		p, perr := Parse(src)
		_, _, literalErr := legacyParseCIDRish(tc.literal)
		if literalErr != nil {
			if perr == nil {
				t.Fatalf("%s: malformed literal %q parsed", src, tc.literal)
			}
			continue
		}
		if perr != nil {
			t.Fatalf("%s: %v", src, perr)
		}
		got, err := p.MatchOne(obs(map[string][]string{"x:y": {tc.value}}))
		if (err != nil) != (wantErr != nil) || got != want {
			t.Fatalf("%s on %q = %v, %v; legacy = %v, %v", src, tc.value, got, err, want, wantErr)
		}
	}
	return want
}

func TestCIDRMatchesLegacy(t *testing.T) {
	contained := 0
	for _, outer := range cidrOperands {
		for _, inner := range cidrOperands {
			if checkAgainstLegacy(t, outer, inner) {
				contained++
			}
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		if checkAgainstLegacy(t, randomCIDROperand(r), randomCIDROperand(r)) {
			contained++
		}
	}
	// Guard against a vacuous comparison where nothing ever matches.
	if contained < 200 {
		t.Fatalf("only %d contained pairs: the operands barely exercise containment", contained)
	}
	t.Logf("%d contained pairs", contained)
}

// TestCIDRLiteralCompiledAtParseTime pins the precompilation: a parsed
// ISSUBSET/ISSUPERSET comparison carries its parsed literal, and a
// malformed literal is a positioned parse error.
func TestCIDRLiteralCompiledAtParseTime(t *testing.T) {
	for _, src := range []string{
		"[ipv4-addr:value ISSUBSET '198.51.100.0/24']",
		"[ipv6-addr:value ISSUPERSET '2001:db8::1']",
	} {
		cmp, ok := mustParse(t, src).Root.(ObsTest).Expr.(Comparison)
		if !ok {
			t.Fatalf("%q: root is not a Comparison", src)
		}
		if cmp.cidr == nil {
			t.Fatalf("%q: CIDR literal not compiled at parse time", src)
		}
	}
	for _, src := range []string{
		"[ipv4-addr:value ISSUBSET '198.51.100.0/33']",
		"[ipv4-addr:value ISSUPERSET 'not-an-ip']",
		"[ipv4-addr:value ISSUBSET 24]",
	} {
		_, err := Parse(src)
		var serr *SyntaxError
		if !errors.As(err, &serr) {
			t.Fatalf("Parse(%q) error = %v, want *SyntaxError", src, err)
		}
		if want := strings.LastIndexByte(src, ' ') + 1; serr.Pos != want {
			t.Fatalf("Parse(%q): SyntaxError.Pos = %d, want %d (the literal)", src, serr.Pos, want)
		}
	}
}

// TestCIDREvalDoesNotAllocate checks that matching an observed value
// against a compiled literal parses it without allocating.
func TestCIDREvalDoesNotAllocate(t *testing.T) {
	for _, src := range []string{
		"[x:y ISSUBSET '198.51.100.0/24']",
		"[x:y ISSUPERSET '2001:db8::1']",
	} {
		cmp := mustParse(t, src).Root.(ObsTest).Expr.(Comparison)
		for _, value := range []string{"198.51.100.7", "2001:db8::/32", "::ffff:198.51.100.7"} {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := cmp.compareValue(value); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s on %q: %v allocs per evaluation, want 0", src, value, allocs)
			}
		}
	}
}
