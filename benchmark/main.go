// Command benchmark is the repository's benchmark: it builds
// cmd/stopss-server, spawns it with its shipped flags, drives it over
// HTTP and its own TCP notification sink, checks every delivery against
// an in-process oracle and prints each metric by name and unit.
//
//	bash benchmark/run.sh                                   # all workloads
//	bash benchmark/run.sh --workload fanout --seed 7 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload selective --trace 1    # per-layer metrics + span file
//	bash benchmark/run.sh --repeat 10                       # spread of every metric against its bound
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
	seed := flag.Int64("seed", 2003, "seed for every generated input; the server sees only the inputs")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file per workload")
	repeat := flag.Int("repeat", 1, "run N times on seeds seed, seed+1, …; report each metric's spread and fail if it exceeds the bound")
	out := flag.String("out", "", "directory for server logs and span files (default .bench_build/out)")
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	// The load generator shares two CPUs with the servers it measures;
	// collecting its own garbage a quarter as often leaves them more of both.
	debug.SetGCPercent(400)

	e, err := newEnv(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// Servers are children of this process; make sure none outlives it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	err = e.run(strings.Split(*workload, ","), *seed, *seconds, *trace == 1, *repeat)
	e.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run measures each workload, repeat times, and prints per run a table
// for people and, last, the one-line JSON report for the driver.
func (e *env) run(names []string, seed int64, seconds float64, traced bool, repeat int) error {
	sp, err := loadSpec(e.root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	history := map[string][]*report{} // workload → one report per repeat
	for i := 0; i < repeat; i++ {
		for _, name := range names {
			s, err := e.measure(name, seed+int64(i), seconds, traced)
			if err != nil {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			m := s.endToEnd()
			if traced {
				if m, err = e.perLayer(s, m); err != nil {
					return fmt.Errorf("workload %s: %w", name, err)
				}
			}
			r, err := m.report(s, want)
			if err != nil {
				return err
			}
			printRun(s, seed+int64(i), want, r)
			history[name] = append(history[name], r)
			line, err := json.Marshal(r)
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", line)
			if !r.Correct {
				return fmt.Errorf("workload %s: %d of %d operations failed", name, r.Failed, r.Attempted)
			}
		}
	}
	if repeat > 1 {
		return printSpread(names, want, history)
	}
	return nil
}

// printRun prints one run for people: where the time went, then every
// metric with its unit and the number of samples behind it.
func printRun(s *sample, seed int64, want []metricSpec, r *report) {
	sc := s.sc
	expect := 0
	for _, ev := range sc.Events {
		expect += len(ev.Expect)
	}
	fmt.Printf("\n== %s  seed %d  %d server(s) on loopback  %d subscriptions  %.2f notifications per publish  paced %d/s ==\n",
		sc.Name, seed, sc.Servers, len(sc.Subs), float64(expect)/float64(len(sc.Events)), sc.Rate)
	fmt.Printf("   inputs+oracle %.2fs, set-ups %.2fs, warm-up %v, paced %v (open loop, %d publishes), capacity %v (closed loop, %d publishers, %d publishes)\n",
		s.oracleS, sum(s.setupS), s.phases.warm, s.phases.paced, len(s.paced), s.phases.capacity, publishers(), len(s.capacity))
	if sc.Servers > 1 {
		fmt.Println("   the brokers share one host: hops cross loopback, not a link, so wire latency and bandwidth are not measured")
	}
	for _, ms := range want {
		v := r.Metrics[ms.Name]
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("n=%d", v.n)
		}
		fmt.Printf("   %-36s %14.4f %-6s %s\n", ms.Name, v.Value, v.Unit, n)
	}
	fmt.Printf("   attempted %d, failed %d, duplicates %d\n", s.attempted, s.failed, s.duplicates)
	for _, f := range s.failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// printSpread is the -repeat self-check: per workload and metric the
// median, the quartiles and their distance as a share of the median,
// held against the metric's bound.
func printSpread(names []string, want []metricSpec, history map[string][]*report) error {
	var over []string
	for _, name := range names {
		fmt.Printf("\n== %s: spread over %d runs ==\n", name, len(history[name]))
		fmt.Printf("   %-36s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, ms := range want {
			xs := make([]float64, len(history[name]))
			for i, r := range history[name] {
				xs[i] = r.Metrics[ms.Name].Value
			}
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			flag := ""
			// setup_s is held to its bound between sets of runs, not within one.
			if ms.Bound > 0 && spread > ms.Bound && ms.Name != "setup_s" {
				flag = "  OVER"
				over = append(over, name+"/"+ms.Name)
			}
			fmt.Printf("   %-36s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%%s\n", ms.Name, q1, q2, q3, spread*100, ms.Bound*100, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds bound: %s", strings.Join(over, ", "))
	}
	return nil
}
