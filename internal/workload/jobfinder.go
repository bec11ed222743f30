package workload

import (
	"fmt"
	"math/rand"

	"stopss/internal/message"
)

// JobsODL is the job-finder domain ontology of the paper's running
// examples (§1, §3.1, §4), expressed in ODL. The demonstration scenario,
// the examples and several experiments load it.
const JobsODL = `
# Job-finder domain (paper sections 1, 3.1 and 4).
domain jobs

synonyms {
    university: school, college, "alma mater"
    "professional experience": "work experience"
    degree: diploma, qualification
    position: role, title
    skill: competency
}

concepts {
    degree-level {
        "graduate degree" { PhD MSc MBA }
        "undergraduate degree" { BSc BA }
    }
    "software developer" {
        "mainframe developer" { "COBOL programmer" }
        "web developer" { "frontend developer" "backend developer" }
    }
}

mappings {
    # professional experience = present date - graduation year (paper 3.1);
    # present date fixed to the publication year of the paper.
    rule experience_from_graduation
        when exists("graduation year")
        derive "professional experience" = 2003 - attr("graduation year")

    # A mainframe developer resume implies COBOL skills and the 1960-1980
    # era (paper section 1).
    map position "mainframe developer" -> skill "COBOL", era "1960-1980"
    map position "COBOL programmer" -> skill "COBOL", era "1960-1980"
}
`

// AutosODL is a second, disjoint domain used by the multi-domain test
// and example. It deliberately contains no reference to the jobs
// domain: inter-domain bridges are added as extra mapping functions at
// merge time (paper §3.2), which core.TestCrossDomainBridge and
// examples/multidomain demonstrate.
const AutosODL = `
domain autos

synonyms {
    car: automobile, auto
    price: cost
}

concepts {
    vehicle {
        car { sedan suv "sports car" }
        truck { pickup van }
    }
}

mappings {
    map car "vintage" -> era "pre-1970"
}
`

// universities, degrees and companies feed the job-finder generator.
var (
	universities = []string{"Toronto", "Waterloo", "McGill", "UBC", "Queens", "York", "Carleton"}
	degrees      = []string{"PhD", "MSc", "MBA", "BSc", "BA"}
	companies    = []string{"IBM", "Microsoft", "Nortel", "RIM", "Sun", "Oracle", "ATI"}
	positions    = []string{"mainframe developer", "web developer", "frontend developer", "backend developer", "COBOL programmer"}
	skills       = []string{"COBOL", "Java", "C++", "SQL", "Perl"}
)

// JobFinder generates the paper's demonstration scenario: companies
// subscribe with qualification requirements; candidates publish resumes.
type JobFinder struct {
	rng    *rand.Rand
	nextID message.SubID
}

// NewJobFinder builds a deterministic job-finder generator.
func NewJobFinder(seed int64) *JobFinder {
	return &JobFinder{rng: rand.New(rand.NewSource(seed))}
}

// RecruiterSubscription produces one company subscription. Recruiters
// use canonical terminology (root attributes) and often general degree
// concepts — exactly the subscriber side of the paper's model.
func (j *JobFinder) RecruiterSubscription(company string) message.Subscription {
	j.nextID++
	var preds []message.Predicate
	preds = append(preds, message.Pred("university", message.OpEq,
		message.String(universities[j.rng.Intn(len(universities))])))
	switch j.rng.Intn(3) {
	case 0: // specific degree
		preds = append(preds, message.Pred("degree", message.OpEq,
			message.String(degrees[j.rng.Intn(len(degrees))])))
	case 1: // general degree concept — needs the hierarchy to match
		preds = append(preds, message.Pred("degree", message.OpEq,
			message.String("graduate degree")))
	}
	if j.rng.Intn(2) == 0 {
		preds = append(preds, message.Pred("professional experience", message.OpGe,
			message.Int(int64(1+j.rng.Intn(10)))))
	}
	if j.rng.Intn(4) == 0 {
		preds = append(preds, message.Pred("skill", message.OpEq,
			message.String(skills[j.rng.Intn(len(skills))])))
	}
	return message.NewSubscription(j.nextID, company, preds...)
}

// Resume produces one candidate publication. Candidates use the
// publisher-side vocabulary: "school" instead of "university",
// "graduation year" instead of experience, specific degrees and
// positions — the semantic gap the system must bridge.
func (j *JobFinder) Resume() message.Event {
	var ev message.Event
	ev.Add("school", message.String(universities[j.rng.Intn(len(universities))]))
	ev.Add("degree", message.String(degrees[j.rng.Intn(len(degrees))]))
	ev.Add("graduation year", message.Int(int64(1980+j.rng.Intn(23)))) // 1980..2002
	ev.Add("position", message.String(positions[j.rng.Intn(len(positions))]))
	for k := 0; k < 1+j.rng.Intn(2); k++ {
		ev.Add(fmt.Sprintf("job%d", k+1), message.String(companies[j.rng.Intn(len(companies))]))
	}
	return ev
}

// Recruiters generates n company subscriptions.
func (j *JobFinder) Recruiters(n int) []message.Subscription {
	out := make([]message.Subscription, n)
	for i := range out {
		out[i] = j.RecruiterSubscription(fmt.Sprintf("company-%d", i))
	}
	return out
}

// Resumes generates n candidate publications.
func (j *JobFinder) Resumes(n int) []message.Event {
	out := make([]message.Event, n)
	for i := range out {
		out[i] = j.Resume()
	}
	return out
}
