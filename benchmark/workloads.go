package main

import (
	"fmt"
	"math/rand"
	"strings"

	"stopss/internal/message"
	"stopss/internal/sublang"
	"stopss/internal/workload"
)

// eventPool is how many generated events a scenario holds; the oracle
// solves each once. The phases walk the pool in order and wrap around,
// so a shape recurs only after eventPool other publishes: to the
// server's expansion LRU (1 024 entries as shipped) a wrapped event is
// as cold as a new one. A cache of eventPool/2 entries or more would
// start to see the wrap, and the pool would have to grow with it.
const eventPool = 4096

// Scenario is everything one run feeds the program, derived from the
// seed alone. The server never sees the seed, only these inputs.
type Scenario struct {
	Name    string
	Rate    int    // paced-phase publishes per second, fixed per workload
	Servers int    // 1, or 3 for the line b1—b2—b3; publishes enter at server 0
	ODL     string // ontology source for -ontology; "" = the built-in jobs domain
	Journal bool   // start with -journal-dir and subscribe durably
	// ChurnRate is the churn connection's subscribe→unsubscribe pairs per
	// second beside the warm-up and paced phases; 0 means no such connection.
	ChurnRate int

	Clients []Client
	Subs    []Sub
	Events  []Event
	// ChurnSubs are the subscription texts the churn connection cycles
	// through, owned by an un-routed client so they never notify. Every
	// workload has them: the traced run times index writes on them.
	ChurnSubs []string
}

// Client is one registered subscriber; all of them route to the sink.
type Client struct {
	Name   string
	Server int
}

// Sub is one subscription of the measured population.
type Sub struct {
	Client int // index into Scenario.Clients
	Text   string
}

// Event is one publication and, once the oracle has run, the indexes of
// the subscriptions it must notify, ascending.
type Event struct {
	Text   string
	Expect []int32
}

// churnClient owns the churn connection's subscriptions. It registers
// without a route, so a publish that happens to match one of them is
// dropped by the broker and nothing reaches the sink.
const churnClient = "churner"

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"fanout", "selective", "durable", "line3", "churn"}

// pacedRate is each workload's open-loop rate in publishes per second:
// 0.4 × the seed commit's pubs_per_s on the 2-vCPU reference box, rounded
// to two significant figures and never rescaled (README, "Paced rates").
var pacedRate = map[string]int{
	"fanout":    330,
	"selective": 970,
	"durable":   340,
	"line3":     140,
	"churn":     970,
}

// churnRate is the churn workload's subscribe→unsubscribe pairs per
// second: 0.4 × the 1 750 pairs/s one closed-loop connection completed
// beside the paced publishes on the seed commit, fixed like the rates above.
const churnRate = 700

// newScenario generates the named workload's inputs.
func newScenario(name string, seed int64) (*Scenario, error) {
	sc := &Scenario{Name: name, Rate: pacedRate[name], Servers: 1}
	switch name {
	case "fanout":
		jobsPopulation(sc, seed, 0, 100, 500)
	case "durable":
		sc.Journal = true
		jobsPopulation(sc, seed, 0, 50, 200)
	case "line3":
		sc.Servers = 3
		// The population lives at the far end; 50 subscriptions sit
		// mid-path so covering and mid-path delivery run too.
		jf := jobsPopulation(sc, seed, 2, 100, 450)
		first := len(sc.Clients)
		for i := 0; i < 10; i++ {
			sc.Clients = append(sc.Clients, Client{Name: fmt.Sprintf("mid-%d", i), Server: 1})
		}
		for i := 0; i < 50; i++ {
			s := jf.RecruiterSubscription("")
			sc.Subs = append(sc.Subs, Sub{Client: first + i%10, Text: sublang.FormatSubscription(s.Preds)})
		}
	case "selective", "churn":
		if name == "churn" {
			sc.ChurnRate = churnRate
		}
		if err := selectivePopulation(sc, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return sc, nil
}

// jobsPopulation fills the scenario with the paper's job-finder
// demonstration: companies subscribing as recruiters at the given
// server, and resumes as events. It returns the generator so a caller
// can draw further subscriptions from the same stream.
func jobsPopulation(sc *Scenario, seed int64, server, companies, subs int) *workload.JobFinder {
	jf := workload.NewJobFinder(seed)
	first := len(sc.Clients)
	for i := 0; i < companies; i++ {
		sc.Clients = append(sc.Clients, Client{Name: fmt.Sprintf("company-%d", i), Server: server})
	}
	for i := 0; i < subs; i++ {
		s := jf.RecruiterSubscription("")
		sc.Subs = append(sc.Subs, Sub{Client: first + i%companies, Text: sublang.FormatSubscription(s.Preds)})
	}
	// Resumes come from their own stream so the event sequence does not
	// depend on how many subscriptions a workload draws.
	ev := workload.NewJobFinder(seed + 1)
	sc.Events = make([]Event, eventPool)
	for i := range sc.Events {
		sc.Events[i].Text = sublang.FormatEvent(ev.Resume())
	}
	// Churned subscriptions on the job-finder workloads are recruiter
	// subscriptions too; three in ten repeat an earlier shape.
	sc.ChurnSubs = churnTexts(seed+2, func() string {
		return sublang.FormatSubscription(jf.RecruiterSubscription("").Preds)
	})
	return jf
}

// churnTexts draws the churn connection's subscription texts: 70 % new
// from gen, 30 % a repeat of an earlier one, which is what hits the
// matcher's plan cache.
func churnTexts(seed int64, gen func() string) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, 4096)
	for len(out) < cap(out) {
		if len(out) > 0 && rng.Float64() < 0.3 {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		out = append(out, gen())
	}
	return out
}

// selectiveConfig is the synthetic vocabulary of the selective and churn
// workloads. The ODL file the server loads is written from the same
// numbers (selectiveODL), so generator and server agree on every term.
func selectiveConfig(seed int64) workload.Config {
	return workload.Config{
		Seed:            seed,
		Attributes:      40,
		ValuesPerAttr:   selectiveValues,
		NumericAttrs:    10,
		NumericRange:    100,
		ZipfSkew:        1.2,
		PredsMin:        1,
		PredsMax:        4,
		EqualityFrac:    0.7,
		SynonymsPerAttr: 3,
		ConceptTrees:    6,
		ConceptDepth:    4,
		ConceptFanout:   3,
		MappingChains:   4,
		ChainLength:     2,
	}
}

const (
	selectiveSubs    = 8000
	selectiveClients = 64
	// selectiveValues is the string-value cardinality per attribute. With
	// every subscription anchored on one string equality (below) it is
	// the knob that sets matches per publish; 30 gives 1–2.
	selectiveValues = 30
	// hotShapes is the hot event pool. A hot shape recurs about every
	// 2×hotShapes publishes, between which as many fresh shapes pass, so
	// 256 is what stays resident in the 1 024-entry expansion LRU.
	hotShapes   = 256
	chainValues = 50 // mapping-chain seeds are drawn from [0, chainValues)
	chainSubs   = 25 // subscriptions per chain on its last hop
)

// selectivePopulation fills the scenario with a large index and few
// matches: 8 000 subscriptions over the generated ontology, of which a
// publish matches one or two.
func selectivePopulation(sc *Scenario, seed int64) error {
	cfg := selectiveConfig(seed)
	sc.ODL = selectiveODL(cfg)
	g, err := workload.New(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < selectiveClients; i++ {
		sc.Clients = append(sc.Clients, Client{Name: fmt.Sprintf("client-%d", i)})
	}
	rng := rand.New(rand.NewSource(seed + 1))

	// The generator's range and concept predicates each hold for a large
	// share of events, so a subscription made only of those would match
	// hundreds of publishes in a thousand. Keep the ones anchored on a
	// plain string equality; the other predicates stay as drawn.
	anchored := func() string {
		for {
			s := g.Subscription("")
			for _, p := range s.Preds {
				if p.Op == message.OpEq && p.Val.Kind() == message.KindString &&
					!strings.HasPrefix(p.Val.Str(), "concept") {
					return sublang.FormatSubscription(s.Preds)
				}
			}
		}
	}
	chained := cfg.MappingChains * chainSubs
	for i := 0; i < selectiveSubs-chained; i++ {
		sc.Subs = append(sc.Subs, Sub{Client: i % selectiveClients, Text: anchored()})
	}
	// A few subscriptions sit on the last hop of each mapping chain, so
	// a match there needs both rules of the chain to have fired.
	for c := 0; c < cfg.MappingChains; c++ {
		for i := 0; i < chainSubs; i++ {
			text := fmt.Sprintf("(%s = %d)", chainAttr(c, cfg.ChainLength), rng.Intn(chainValues)+cfg.ChainLength)
			sc.Subs = append(sc.Subs, Sub{Client: rng.Intn(selectiveClients), Text: text})
		}
	}

	// Half the events come from a hot pool that fits the expansion LRU,
	// half are drawn fresh; one in ten also seeds a mapping chain.
	event := func() string {
		ev := g.Event()
		if rng.Float64() < 0.1 {
			ev.Add(chainAttr(rng.Intn(cfg.MappingChains), 0), message.Int(int64(rng.Intn(chainValues))))
		}
		return sublang.FormatEvent(ev)
	}
	hot := make([]string, hotShapes)
	for i := range hot {
		hot[i] = event()
	}
	sc.Events = make([]Event, eventPool)
	for i := range sc.Events {
		if rng.Float64() < 0.5 {
			sc.Events[i].Text = hot[rng.Intn(len(hot))]
		} else {
			sc.Events[i].Text = event()
		}
	}
	sc.ChurnSubs = churnTexts(seed+2, anchored)
	return nil
}

// chainAttr names hop k of mapping chain c, as workload.Generator does.
func chainAttr(c, k int) string { return fmt.Sprintf("chain%d-hop%d", c, k) }

// selectiveODL writes the ontology of the selective workload in ODL:
// the synonym groups, concept trees and mapping chains that
// workload.Generator builds in memory for the same Config, under the
// same names, so the server can load them with -ontology.
func selectiveODL(cfg workload.Config) string {
	var sb strings.Builder
	sb.WriteString("# Generated by benchmark/workloads.go; mirrors workload.Generator's knowledge base.\n")
	sb.WriteString("domain selective\n\nsynonyms {\n")
	for a := 0; a < cfg.Attributes; a++ {
		attr := fmt.Sprintf("attr%02d", a)
		syns := make([]string, cfg.SynonymsPerAttr)
		for s := range syns {
			syns[s] = fmt.Sprintf("%q", fmt.Sprintf("%s~syn%d", attr, s))
		}
		fmt.Fprintf(&sb, "    %s: %s\n", attr, strings.Join(syns, ", "))
	}
	sb.WriteString("}\n\nconcepts {\n")
	var tree func(name string, depth int)
	tree = func(name string, depth int) {
		indent := strings.Repeat("    ", depth+1)
		if depth == cfg.ConceptDepth {
			fmt.Fprintf(&sb, "%s%q\n", indent, name)
			return
		}
		fmt.Fprintf(&sb, "%s%q {\n", indent, name)
		for f := 0; f < cfg.ConceptFanout; f++ {
			tree(fmt.Sprintf("%s.%d", name, f), depth+1)
		}
		fmt.Fprintf(&sb, "%s}\n", indent)
	}
	for t := 0; t < cfg.ConceptTrees; t++ {
		tree(fmt.Sprintf("concept%d", t), 0)
	}
	sb.WriteString("}\n\nmappings {\n")
	for c := 0; c < cfg.MappingChains; c++ {
		for k := 0; k < cfg.ChainLength; k++ {
			fmt.Fprintf(&sb, "    rule chain%d_rule%d\n        when exists(%q)\n        derive %q = attr(%q) + 1\n",
				c, k, chainAttr(c, k), chainAttr(c, k+1), chainAttr(c, k))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
