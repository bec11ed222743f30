package ontology

import (
	"strings"
	"testing"

	"stopss/internal/message"
	"stopss/internal/semantic"
)

func compileJobs(t *testing.T, opts Options) *Ontology {
	t.Helper()
	o, err := Load(jobsODL, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestCompileSynonyms(t *testing.T) {
	o := compileJobs(t, Options{})
	for term, root := range map[string]string{
		"school":          "university",
		"college":         "university",
		"alma mater":      "university",
		"work experience": "professional experience",
	} {
		if got, _ := o.Synonyms.Canonical(term); got != root {
			t.Errorf("Canonical(%q) = %q, want %q", term, got, root)
		}
	}
}

func TestCompileHierarchy(t *testing.T) {
	o := compileJobs(t, Options{})
	if !o.Hierarchy.IsA("PhD", "degree") {
		t.Error("PhD should be a degree transitively")
	}
	if !o.Hierarchy.IsA("BSc", "degree") {
		t.Error("BSc should be a degree")
	}
	if o.Hierarchy.IsA("degree", "PhD") {
		t.Error("hierarchy direction reversed")
	}
	if d, _ := o.Hierarchy.Depth("PhD"); d != 2 {
		t.Errorf("Depth(PhD) = %d, want 2", d)
	}
}

func TestCompileRuleFires(t *testing.T) {
	o := compileJobs(t, Options{})
	fns := o.Mappings.Applicable(message.E("graduation year", 1993))
	if len(fns) != 1 {
		t.Fatalf("Applicable = %d funcs", len(fns))
	}
	pairs := fns[0].Apply(message.E("graduation year", 1993))
	if len(pairs) != 1 || pairs[0].Attr != "professional experience" {
		t.Fatalf("Apply = %v", pairs)
	}
	if pairs[0].Val.IntVal() != 10 {
		t.Errorf("derived experience = %v, want 10 (paper §3.1)", pairs[0].Val)
	}
	// Missing trigger → rule invisible.
	if fns := o.Mappings.Applicable(message.E("x", 1)); len(fns) != 0 {
		t.Errorf("rule applicable without trigger: %d", len(fns))
	}
	// Non-numeric graduation year → rule declines, no panic.
	if pairs := fns[0].Apply(message.E("graduation year", "nineteen-ninety")); pairs != nil {
		t.Errorf("rule should not fire on type mismatch: %v", pairs)
	}
}

func TestCompilePairMap(t *testing.T) {
	o := compileJobs(t, Options{})
	fns := o.Mappings.Applicable(message.E("position", "mainframe developer"))
	if len(fns) != 1 {
		t.Fatalf("Applicable = %d", len(fns))
	}
	pairs := fns[0].Apply(message.E("position", "mainframe developer"))
	if len(pairs) != 2 {
		t.Fatalf("Apply = %v", pairs)
	}
	if pairs[0].Attr != "skill" || pairs[0].Val.Str() != "COBOL" {
		t.Errorf("pair 0 = %v", pairs[0])
	}
	if pairs[1].Attr != "era" || pairs[1].Val.Str() != "1960-1980" {
		t.Errorf("pair 1 = %v", pairs[1])
	}
}

func TestCompileNormalization(t *testing.T) {
	o := compileJobs(t, Options{Normalize: true})
	if got, _ := o.Synonyms.Canonical("school"); got != "university" {
		t.Errorf("Canonical(school) = %q", got)
	}
	if !o.Hierarchy.IsA("phd", "degree") {
		t.Error("normalized hierarchy should know phd")
	}
	if o.Hierarchy.Has("PhD") {
		t.Error("unnormalized concept should not exist when Normalize is on")
	}
}

func TestCompilePrefixedNames(t *testing.T) {
	o := compileJobs(t, Options{Prefix: true})
	names := o.Mappings.Names()
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "jobs.experience_from_graduation") {
		t.Errorf("rule names not domain-prefixed: %v", names)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src      string
		contains string
	}{
		{`domain d synonyms { a: b } synonyms { c: b }`, "already maps"},
		{`domain d concepts { a { a } }`, "cannot specialize itself"},
		{`domain d concepts { a { b { a } } }`, "cycle"},
		{`domain d mappings { rule r derive a = 1 }`, "references no attributes"},
		{`domain d mappings { rule r when exists(x) derive a = 1 rule r when exists(x) derive a = 1 }`, "already registered"},
	}
	for _, tc := range cases {
		_, err := Load(tc.src, Options{})
		if err == nil {
			t.Errorf("Load(%q) should fail", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.contains) {
			t.Errorf("Load(%q) error = %q, want contains %q", tc.src, err, tc.contains)
		}
	}
}

func TestRuleConditionGating(t *testing.T) {
	src := `
domain d
mappings {
    rule gated
        when attr(score) >= 50 and attr(kind) = "exam"
        derive grade = attr(score) / 10
}
`
	o, err := Load(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := o.Mappings.Applicable(message.E("score", 80, "kind", "exam"))[0]

	if pairs := f.Apply(message.E("score", 80, "kind", "exam")); len(pairs) != 1 || pairs[0].Val.IntVal() != 8 {
		t.Errorf("rule should fire: %v", pairs)
	}
	if pairs := f.Apply(message.E("score", 30, "kind", "exam")); pairs != nil {
		t.Errorf("failed condition must gate the rule: %v", pairs)
	}
	if pairs := f.Apply(message.E("score", 80, "kind", "quiz")); pairs != nil {
		t.Errorf("failed equality must gate the rule: %v", pairs)
	}
	if pairs := f.Apply(message.E("score", 80)); pairs != nil {
		t.Errorf("missing attribute must gate the rule: %v", pairs)
	}
}

func TestRuleArithmetic(t *testing.T) {
	src := `
domain d
mappings {
    rule math derive v = -(attr(a) + 2) * 3 / (1 + 1) - -4
    rule division when exists(a) derive w = attr(a) / attr(b)
    rule concat derive s = "x-" + attr(name)
}
`
	o, err := Load(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mathF, divF, catF semantic.MappingFunc
	for _, f := range o.Mappings.Applicable(message.E("a", 4, "b", 0, "name", "n")) {
		switch f.Name() {
		case "math":
			mathF = f
		case "division":
			divF = f
		case "concat":
			catF = f
		}
	}
	// -(4+2)*3/2 - -4 = -18/2 + 4 = -5
	pairs := mathF.Apply(message.E("a", 4))
	if len(pairs) != 1 || pairs[0].Val.IntVal() != -5 {
		t.Errorf("math = %v, want -5", pairs)
	}
	// Division by zero declines instead of panicking.
	if pairs := divF.Apply(message.E("a", 4, "b", 0)); pairs != nil {
		t.Errorf("division by zero should decline: %v", pairs)
	}
	if pairs := divF.Apply(message.E("a", 4, "b", 2)); len(pairs) != 1 || pairs[0].Val.IntVal() != 2 {
		t.Errorf("division = %v", pairs)
	}
	// String concatenation.
	if pairs := catF.Apply(message.E("name", "n")); len(pairs) != 1 || pairs[0].Val.Str() != "x-n" {
		t.Errorf("concat = %v", pairs)
	}
	// Fractional results stay floats.
	src2 := `domain d mappings { rule half derive h = attr(n) / 2 }`
	o2, err := Load(src2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := o2.Mappings.Applicable(message.E("n", 5))[0]
	p := f.Apply(message.E("n", 5))
	if p[0].Val.Kind() != message.KindFloat || p[0].Val.FloatVal() != 2.5 {
		t.Errorf("half of 5 = %v (%s)", p[0].Val, p[0].Val.Kind())
	}
}

func TestMergeMultiDomain(t *testing.T) {
	jobs := compileJobs(t, Options{Prefix: true})
	autos, err := Load(`
domain autos
synonyms { car: automobile }
concepts { vehicle { car truck } }
mappings {
    map car "vintage" -> era "pre-1970"
}
`, Options{Prefix: true})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(jobs, autos)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := merged.Synonyms.Canonical("automobile"); got != "car" {
		t.Error("autos synonyms lost in merge")
	}
	if got, _ := merged.Synonyms.Canonical("school"); got != "university" {
		t.Error("jobs synonyms lost in merge")
	}
	if !merged.Hierarchy.IsA("PhD", "degree") || !merged.Hierarchy.IsA("car", "vehicle") {
		t.Error("hierarchies lost in merge")
	}
	if merged.Mappings.Len() != jobs.Mappings.Len()+autos.Mappings.Len() {
		t.Errorf("mapping count = %d", merged.Mappings.Len())
	}
	if !strings.Contains(merged.Domain, "autos") || !strings.Contains(merged.Domain, "jobs") {
		t.Errorf("merged domain name = %q", merged.Domain)
	}
	if !strings.Contains(merged.Summary(), "mapping functions") {
		t.Errorf("Summary = %q", merged.Summary())
	}
}

func TestOntologyStage(t *testing.T) {
	o := compileJobs(t, Options{})
	st := o.Stage(semantic.FullConfig())
	res := st.ProcessEvent(message.E("school", "Toronto", "graduation year", 1990))
	// The synonym rewrite and the mapping rule's pair, in one event.
	want := message.E("university", "Toronto", "graduation year", 1990, "professional experience", 13)
	if !res.Event.Equal(want) {
		t.Errorf("saturated event = %v, want %v", res.Event, want)
	}
	if res.SynonymRewrites != 1 || res.MappingPairs != 1 {
		t.Errorf("synonym stage or mapping rule not wired through ontology: %+v", res)
	}
}

func TestSingleDomainMergeKeepsName(t *testing.T) {
	jobs := compileJobs(t, Options{})
	m, err := Merge(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Domain != "jobs" {
		t.Errorf("Domain = %q, want jobs", m.Domain)
	}
}
