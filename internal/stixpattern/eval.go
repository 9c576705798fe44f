package stixpattern

import (
	"fmt"
	"net/netip"
	"regexp"
	"strconv"
	"strings"
)

// Match evaluates the pattern against a time-ordered sequence of
// observations. A bracketed test matches if any single observation
// satisfies it; AND requires both operands to match (possibly on different
// observations); OR requires either; FOLLOWEDBY requires the right operand
// to match on an observation strictly later in the sequence than one
// matching the left operand. Qualifiers constrain the matching
// observations' timestamps (WITHIN, START-STOP) or multiplicity (REPEATS).
func (p *Pattern) Match(observations []Observation) (bool, error) {
	idx, err := evalObs(p.Root, observations)
	if err != nil {
		return false, err
	}
	return len(idx) > 0, nil
}

// MatchOne is a convenience for matching a single observation.
func (p *Pattern) MatchOne(obs Observation) (bool, error) {
	return p.Match([]Observation{obs})
}

// evalObs returns the sorted indexes of observations that participate in a
// match of expr, or an empty slice if expr does not match.
func evalObs(expr ObservationExpr, observations []Observation) ([]int, error) {
	switch e := expr.(type) {
	case ObsTest:
		var idx []int
		for i, obs := range observations {
			ok, err := evalBool(e.Expr, obs)
			if err != nil {
				return nil, err
			}
			if ok {
				idx = append(idx, i)
			}
		}
		return idx, nil
	case ObsCombine:
		left, err := evalObs(e.Left, observations)
		if err != nil {
			return nil, err
		}
		right, err := evalObs(e.Right, observations)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "AND":
			if len(left) > 0 && len(right) > 0 {
				return union(left, right), nil
			}
			return nil, nil
		case "OR":
			if len(left) > 0 || len(right) > 0 {
				return union(left, right), nil
			}
			return nil, nil
		case "FOLLOWEDBY":
			if len(left) == 0 || len(right) == 0 {
				return nil, nil
			}
			// The earliest left match must be strictly before some right
			// match.
			first := left[0]
			for _, r := range right {
				if r > first {
					return union(left, right), nil
				}
			}
			return nil, nil
		default:
			return nil, fmt.Errorf("stixpattern: unknown observation operator %q", e.Op)
		}
	case ObsQualified:
		idx, err := evalObs(e.Expr, observations)
		if err != nil {
			return nil, err
		}
		if len(idx) == 0 {
			return nil, nil
		}
		q := e.Qualifier
		switch q.Kind {
		case "REPEATS":
			if len(idx) >= q.Times {
				return idx, nil
			}
			return nil, nil
		case "WITHIN":
			minAt, maxAt := observations[idx[0]].At, observations[idx[0]].At
			for _, i := range idx[1:] {
				at := observations[i].At
				if at.Before(minAt) {
					minAt = at
				}
				if at.After(maxAt) {
					maxAt = at
				}
			}
			if maxAt.Sub(minAt).Seconds() <= q.Seconds {
				return idx, nil
			}
			return nil, nil
		case "START-STOP":
			var kept []int
			for _, i := range idx {
				at := observations[i].At
				if !at.Before(q.Start) && at.Before(q.Stop) {
					kept = append(kept, i)
				}
			}
			return kept, nil
		default:
			return nil, fmt.Errorf("stixpattern: unknown qualifier %q", q.Kind)
		}
	default:
		return nil, fmt.Errorf("stixpattern: unknown observation expression %T", expr)
	}
}

func evalBool(expr CompareExpr, obs Observation) (bool, error) {
	switch e := expr.(type) {
	case BoolCombine:
		left, err := evalBool(e.Left, obs)
		if err != nil {
			return false, err
		}
		// Short-circuit.
		if e.Op == "AND" && !left {
			return false, nil
		}
		if e.Op == "OR" && left {
			return true, nil
		}
		return evalBool(e.Right, obs)
	case Comparison:
		return evalComparison(e, obs)
	default:
		return false, fmt.Errorf("stixpattern: unknown comparison expression %T", expr)
	}
}

func evalComparison(cmp Comparison, obs Observation) (bool, error) {
	values, present := lookup(obs, cmp.Path)
	if !present || len(values) == 0 {
		// Absent object path: the comparison (and its negation) is false,
		// per the STIX patterning semantics for non-existent objects.
		return false, nil
	}
	for _, v := range values {
		ok, err := cmp.compareValue(v)
		if err != nil {
			return false, err
		}
		if ok != cmp.Negated { // ok && !negated, or !ok && negated
			return true, nil
		}
	}
	return false, nil
}

// lookup fetches the values for an object path. A trailing [*] or [N] index
// selector on the pattern path selects within the value list of the base
// path.
func lookup(obs Observation, path string) ([]string, bool) {
	if vals, ok := obs.Fields[path]; ok {
		return vals, true
	}
	// Try index-selector handling: base[N] or base[*].
	if i := strings.LastIndexByte(path, '['); i > 0 && strings.HasSuffix(path, "]") {
		base := path[:i]
		sel := path[i+1 : len(path)-1]
		vals, ok := obs.Fields[base]
		if !ok {
			return nil, false
		}
		if sel == "*" {
			return vals, true
		}
		n, err := strconv.Atoi(sel)
		if err != nil || n < 0 || n >= len(vals) {
			return nil, false
		}
		return vals[n : n+1], true
	}
	return nil, false
}

func (cmp Comparison) compareValue(value string) (bool, error) {
	literals := cmp.Values
	switch cmp.Op {
	case OpEq:
		return equalValue(value, literals[0]), nil
	case OpNeq:
		return !equalValue(value, literals[0]), nil
	case OpLt, OpGt, OpLe, OpGe:
		return compareOrdered(value, cmp.Op, literals[0])
	case OpIn:
		for _, lit := range literals {
			if equalValue(value, lit) {
				return true, nil
			}
		}
		return false, nil
	case OpLike:
		if cmp.matcher != nil {
			return cmp.matcher.MatchString(value), nil
		}
		return likeMatch(value, literals[0].text()), nil
	case OpMatches:
		if cmp.matcher != nil {
			return cmp.matcher.MatchString(value), nil
		}
		// Hand-built AST without a precompiled matcher: compile ad hoc.
		re, err := regexp.Compile(literals[0].text())
		if err != nil {
			return false, fmt.Errorf("stixpattern: bad MATCHES regexp: %w", err)
		}
		return re.MatchString(value), nil
	case OpIsSubset, OpIsSuperset:
		if cmp.cidr == nil {
			// Hand-built AST without a precompiled literal: parse it ad hoc.
			if cmp.Op == OpIsSubset {
				return cidrContains(literals[0].text(), value)
			}
			return cidrContains(value, literals[0].text())
		}
		v, err := parseOperand(value)
		if err != nil {
			return false, err
		}
		if cmp.Op == OpIsSubset {
			return cmp.cidr.contains(v), nil
		}
		return v.contains(*cmp.cidr), nil
	default:
		return false, fmt.Errorf("stixpattern: unknown operator %q", cmp.Op)
	}
}

func equalValue(value string, lit Literal) bool {
	if lit.Kind == LitNumber {
		n, err := strconv.ParseFloat(value, 64)
		if err == nil {
			return n == lit.Num
		}
	}
	return value == lit.text()
}

func compareOrdered(value, op string, lit Literal) (bool, error) {
	var c int
	if lit.Kind == LitNumber {
		n, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return false, nil // non-numeric observed value never orders against a number
		}
		switch {
		case n < lit.Num:
			c = -1
		case n > lit.Num:
			c = 1
		}
	} else {
		c = strings.Compare(value, lit.text())
	}
	switch op {
	case OpLt:
		return c < 0, nil
	case OpGt:
		return c > 0, nil
	case OpLe:
		return c <= 0, nil
	default: // OpGe
		return c >= 0, nil
	}
}

// likeMatch implements the STIX LIKE operator: '%' matches any run of
// characters, '_' matches exactly one. Fallback path for hand-built ASTs;
// parsed patterns carry the compiled form on the Comparison node.
func likeMatch(value, pattern string) bool {
	matched, err := regexp.MatchString(likeRegexpSource(pattern), value)
	return err == nil && matched
}

// likeRegexpSource translates a LIKE pattern into an anchored regexp.
func likeRegexpSource(pattern string) string {
	var re strings.Builder
	re.WriteString("^(?s)")
	for _, r := range pattern {
		switch r {
		case '%':
			re.WriteString(".*")
		case '_':
			re.WriteString(".")
		default:
			re.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	re.WriteString("$")
	return re.String()
}

// cidrContains reports whether the network `outer` (CIDR or single IP)
// contains `inner` (CIDR or single IP).
func cidrContains(outer, inner string) (bool, error) {
	o, err := parseOperand(outer)
	if err != nil {
		return false, err
	}
	i, err := parseOperand(inner)
	if err != nil {
		return false, err
	}
	return o.contains(i), nil
}

// ipNet is one ISSUBSET/ISSUPERSET operand: a bare IP or a CIDR. bits is
// the width of its notation — 32 for dotted-quad CIDRs and for bare IPv4
// or IPv4-mapped addresses, 128 otherwise — and ones the prefix length as
// written (bits for a bare IP). The rules follow net.ParseCIDR,
// net.ParseIP and net.IPNet.Contains; TestCIDRMatchesLegacy checks the
// agreement.
type ipNet struct {
	addr       netip.Addr // as written, unmasked, in 16-byte form
	ones, bits int
}

// parseIPNet parses an operand with net/netip; a valid one costs no
// allocation. Zoned addresses and prefix lengths beyond the notation's
// width are rejected; leading zeros in the prefix length are accepted.
func parseIPNet(s string) (ipNet, bool) {
	addrText, onesText, isCIDR := strings.Cut(s, "/")
	addr, err := netip.ParseAddr(addrText)
	if err != nil || addr.Zone() != "" {
		return ipNet{}, false
	}
	n := ipNet{addr: netip.AddrFrom16(addr.As16()), bits: addr.BitLen()}
	if !isCIDR {
		if addr.Is4In6() {
			n.bits = 32
		}
		n.ones = n.bits
		return n, true
	}
	if onesText == "" {
		return ipNet{}, false
	}
	for i := 0; i < len(onesText); i++ {
		c := onesText[i]
		if c < '0' || c > '9' {
			return ipNet{}, false
		}
		if n.ones = n.ones*10 + int(c-'0'); n.ones > n.bits {
			return ipNet{}, false
		}
	}
	return n, true
}

// parseOperand is parseIPNet for an evaluation-time value, with an error.
func parseOperand(s string) (ipNet, error) {
	n, ok := parseIPNet(s)
	if !ok {
		return ipNet{}, fmt.Errorf("stixpattern: bad IP or CIDR %q", s)
	}
	return n, nil
}

// contains reports whether the network n contains inner: inner's address
// lies in n's network and inner's prefix is at least as long as n's.
func (n ipNet) contains(inner ipNet) bool {
	return n.prefix().Contains(inner.addr.Unmap()) && inner.ones >= n.ones
}

// prefix is the network n denotes. An IPv4 notation, or an IPv4-mapped
// IPv6 network whose prefix keeps the whole ::ffff: mapping, is an IPv4
// network (matching only IPv4 and IPv4-mapped addresses); any other
// network is IPv6 and matches only non-mapped IPv6 addresses.
func (n ipNet) prefix() netip.Prefix {
	if n.addr.Is4In6() && (n.bits == 32 || n.ones >= 96) {
		ones := n.ones
		if n.bits == 128 {
			ones -= 96
		}
		return netip.PrefixFrom(n.addr.Unmap(), ones)
	}
	return netip.PrefixFrom(n.addr, n.ones)
}

func union(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, lists := range [][]int{a, b} {
		for _, i := range lists {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	// Keep ascending order for deterministic qualifier evaluation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
