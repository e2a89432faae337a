package inject

import (
	"testing"

	"spex/internal/confgen"
	"spex/internal/constraint"
)

func mkSet(cs ...*constraint.Constraint) *constraint.Set {
	s := constraint.NewSet("t")
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

func basic(p string, t constraint.BasicType) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindBasicType, Param: p, Basic: t}
}

func rng(p string, min int64) *constraint.Constraint {
	return &constraint.Constraint{Kind: constraint.KindRange, Param: p,
		Intervals: []constraint.Interval{{HasMin: true, Min: min, Valid: true}}}
}

func TestDiffPartitions(t *testing.T) {
	old := mkSet(
		basic("a", constraint.BasicInt64),
		rng("a", 1),
		basic("b", constraint.BasicBool),
	)
	new := mkSet(
		basic("a", constraint.BasicInt64), // unchanged
		rng("a", 4),                       // boundary moved: removed+added
		basic("c", constraint.BasicString),
	)
	d := Diff(old, new)
	if len(d.Unchanged) != 1 {
		t.Errorf("unchanged = %d, want 1", len(d.Unchanged))
	}
	if len(d.Added) != 2 { // new range + c's basic type
		t.Errorf("added = %d, want 2", len(d.Added))
	}
	if len(d.Removed) != 2 { // old range + b's basic type
		t.Errorf("removed = %d, want 2", len(d.Removed))
	}
}

func TestAffectedParamsIncludePeers(t *testing.T) {
	old := mkSet()
	new := mkSet(&constraint.Constraint{Kind: constraint.KindControlDep,
		Param: "q", Peer: "p", Cond: constraint.OpEQ, Value: "true"})
	d := Diff(old, new)
	ps := d.AffectedParams()
	if len(ps) != 2 || ps[0] != "p" || ps[1] != "q" {
		t.Errorf("affected = %v, want [p q]", ps)
	}
}

func TestSelectRetests(t *testing.T) {
	cOld := rng("a", 1)
	cNew := rng("a", 4)
	cStable := basic("x", constraint.BasicInt64)
	old := mkSet(cOld, cStable)
	new := mkSet(cNew, cStable)
	d := Diff(old, new)

	ms := []confgen.Misconf{
		{ID: "m1", Param: "a", Values: map[string]string{"a": "0"}, Violates: cNew},
		{ID: "m2", Param: "x", Values: map[string]string{"x": "fast"}, Violates: cStable},
		{ID: "m3", Param: "x", Values: map[string]string{"x": "1", "a": "3"}, Violates: cStable},
	}
	re := SelectRetests(ms, d)
	ids := map[string]bool{}
	for _, m := range re {
		ids[m.ID] = true
	}
	if !ids["m1"] {
		t.Error("misconfiguration violating the added constraint must be retested")
	}
	if ids["m2"] {
		t.Error("misconfiguration on an unaffected parameter must not be retested")
	}
	if !ids["m3"] {
		t.Error("misconfiguration touching an affected parameter must be retested")
	}
}

func TestDiffIdenticalSetsNeedNoRetest(t *testing.T) {
	s1 := mkSet(basic("a", constraint.BasicInt64), rng("a", 1))
	s2 := mkSet(basic("a", constraint.BasicInt64), rng("a", 1))
	d := Diff(s1, s2)
	if len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("identical sets produced delta: +%d -%d", len(d.Added), len(d.Removed))
	}
	ms := []confgen.Misconf{{ID: "m", Param: "a", Values: map[string]string{"a": "0"}}}
	if re := SelectRetests(ms, d); len(re) != 0 {
		t.Errorf("no-op revision selected %d retests", len(re))
	}
}

// TestIdentityStringsPinned pins constraint IDs and CacheKey to their
// exact bytes. Both are persisted (snapshot keys, set fingerprints), so
// any change to how they are built must leave the strings unchanged.
func TestIdentityStringsPinned(t *testing.T) {
	rng := &constraint.Constraint{Kind: constraint.KindRange, Param: "port",
		Intervals: []constraint.Interval{
			{HasMin: true, Min: 1, HasMax: true, Max: 65535, Valid: true},
			{HasMax: true, Max: 0},
			{HasMin: true, Min: -5},
		},
		Enum: []constraint.EnumValue{{Value: "on", Valid: true}, {Value: "Off"}}}
	ids := []struct {
		c    *constraint.Constraint
		want string
	}{
		{basic("threads", constraint.BasicInt32), "basic|threads|int32"},
		{basic("odd", constraint.BasicType(99)), "basic|odd|BasicType(99)"},
		{&constraint.Constraint{Kind: constraint.KindSemanticType, Param: "log_file", Semantic: constraint.SemFile},
			"sem|log_file|FILE"},
		{rng, "range|port|Off,[-5,+inf](invalid),[-inf,0](invalid),[1,65535](valid),on"},
		{&constraint.Constraint{Kind: constraint.KindControlDep, Param: "ssl_cert", Peer: "ssl", Cond: constraint.OpEQ, Value: "on"},
			"dep|ssl_cert|ssl|=|on"},
		{&constraint.Constraint{Kind: constraint.KindValueRel, Param: "max_len", Rel: constraint.OpGT, Peer: "min_len"},
			"rel|max_len|>|min_len"},
		{&constraint.Constraint{Kind: constraint.Kind(7), Param: "mystery"}, "?|mystery"},
	}
	for _, tc := range ids {
		if got := tc.c.ID(); got != tc.want {
			t.Errorf("ID() = %q, want %q", got, tc.want)
		}
	}

	m := confgen.Misconf{ID: "m|1", Violates: rng,
		Values: map[string]string{"port": "70000", "a:b": "x|y"},
		Env: []confgen.EnvAction{
			{Kind: confgen.EnvOccupyPort, Port: 8080},
			{Kind: confgen.EnvMakeDir, Path: "/var/run/d"},
		}}
	want := "|71:range|port|Off,[-5,+inf](invalid),[-inf,0](invalid),[1,65535](valid),on" +
		"|3:m|1|3:a:b|3:x|y|4:port|5:70000|env:0:8080|0:|env:1:0|10:/var/run/d"
	if got := CacheKey(m); got != want {
		t.Errorf("CacheKey = %q, want %q", got, want)
	}
	if got := CacheKey(confgen.Misconf{ID: "bare"}); got != "|0:|4:bare" {
		t.Errorf("CacheKey(no constraint) = %q", got)
	}
}
