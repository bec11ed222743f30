package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"stopss/internal/broker"
)

// env is where one invocation of the harness builds, runs and writes.
// Everything lives under the checkout: the driver runs the benchmark in
// a directory it may read and write, and nowhere else.
type env struct {
	root   string // checkout root (holds BENCHMARK.json and cmd/stopss-server)
	server string // built stopss-server binary
	out    string // server logs, span files, tables
	tmp    string // journals and generated ontologies, removed on exit
	replay int    // paced inputs the traced run replays

	mu   sync.Mutex
	live map[*cluster]struct{} // clusters with running processes
}

// newEnv locates the checkout, builds stopss-server from its source and
// creates the scratch directories.
func newEnv(out string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if out == "" {
		out = filepath.Join(build, "out")
	}
	e := &env{root: root, out: out, replay: replayInputs, server: filepath.Join(build, "bin", "stopss-server"), live: map[*cluster]struct{}{}}
	for _, d := range []string{out, filepath.Dir(e.server), filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", e.server, "./cmd/stopss-server")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("building stopss-server: %v\n%s", err, msg)
	}
	return e, nil
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (the driver's command) or its parent (go run -C benchmark,
// go test).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent: run from the repository root", wd)
}

// close stops every server still running and removes the scratch state.
// It is safe to call more than once and from the signal handler.
func (e *env) close() {
	e.mu.Lock()
	live := make([]*cluster, 0, len(e.live))
	for c := range e.live {
		live = append(live, c)
	}
	e.mu.Unlock()
	for _, c := range live {
		c.stop()
	}
	os.RemoveAll(e.tmp)
}

// server is one spawned stopss-server process.
type server struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
}

// cluster is the set of servers one scenario runs against: one broker,
// or the line b1—b2—b3.
type cluster struct {
	env     *env
	servers []*server
	dir     string
	stopped bool
}

// freeAddrs asks the kernel for n unused loopback ports. The listeners
// are held until all n are chosen, so the ports differ, and closed before
// the servers bind them, which is the usual small race: the server's
// flags take an address, not a file descriptor.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// start spawns the scenario's servers with the shipped default flags
// plus only what the workload needs, and returns once each answers
// GET /api/v1/stats and, on the line, reports its link up.
func (e *env) start(sc *Scenario) (*cluster, error) {
	dir, err := os.MkdirTemp(e.tmp, sc.Name+"-")
	if err != nil {
		return nil, err
	}
	c := &cluster{env: e, dir: dir}
	e.mu.Lock()
	e.live[c] = struct{}{}
	e.mu.Unlock()
	if err := c.spawn(sc); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) spawn(sc *Scenario) error {
	var common []string
	if sc.ODL != "" {
		path := filepath.Join(c.dir, "generated.odl")
		if err := os.WriteFile(path, []byte(sc.ODL), 0o644); err != nil {
			return err
		}
		common = append(common, "-ontology", path)
	}
	// Two ports per broker: HTTP, and the overlay listener on the line.
	addrs, err := freeAddrs(2 * sc.Servers)
	if err != nil {
		return err
	}
	for i := 0; i < sc.Servers; i++ {
		name := fmt.Sprintf("b%d", i+1)
		addr, overlay := addrs[2*i], addrs[2*i+1]
		args := append([]string{"-addr", addr}, common...)
		if sc.Journal {
			args = append(args, "-journal-dir", filepath.Join(c.dir, "journal-"+name))
		}
		if sc.Servers > 1 {
			args = append(args, "-node", name, "-overlay", overlay)
			if i > 0 {
				args = append(args, "-peer", addrs[2*i-1])
			}
		}
		logf, err := os.Create(filepath.Join(c.env.out, fmt.Sprintf("server-%s-%s.log", sc.Name, name)))
		if err != nil {
			return err
		}
		cmd := exec.Command(c.env.server, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// If the harness dies without running its cleanup (SIGKILL, a
		// panic on another goroutine) the kernel kills the child.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return fmt.Errorf("starting %s: %w", name, err)
		}
		s := &server{name: name, url: "http://" + addr, cmd: cmd, log: logf}
		c.servers = append(c.servers, s)
		// Readiness is observed, never slept for: the server answers its
		// stats endpoint and, on the line, has its link to the broker
		// before it. Brokers start one after the other so that a dial
		// never finds its peer not yet listening, which would cost the
		// overlay's 100 ms retry on some set-ups and not on others.
		deadline := time.Now().Add(20 * time.Second)
		for {
			st, err := s.stats()
			if err == nil && (i == 0 || st.Remote.Peers >= 1) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after 20s (last error: %v); see %s", name, err, logf.Name())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// stop kills every server of the cluster, waits for each to exit and
// removes the cluster's journal and ontology files.
func (c *cluster) stop() {
	c.env.mu.Lock()
	already := c.stopped
	c.stopped = true
	delete(c.env.live, c)
	c.env.mu.Unlock()
	if already {
		return
	}
	for _, s := range c.servers {
		_ = s.cmd.Process.Kill() // already exited is fine
	}
	for _, s := range c.servers {
		_ = s.cmd.Wait() // the kill makes this a non-zero exit by design
		s.log.Close()
	}
	os.RemoveAll(c.dir)
}

// control is the client for set-up and scrapes; the load connections in
// load.go have their own so that they stay at one socket each.
var control = &http.Client{Timeout: 10 * time.Second}

func (s *server) get(path string) ([]byte, error) {
	resp, err := control.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// stats reads GET /api/v1/stats, the counters the server already
// exports, into the broker's own type.
func (s *server) stats() (broker.Stats, error) {
	var st broker.Stats
	body, err := s.get("/api/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// gauges reads the unlabelled-by-name samples of GET /metrics whose name
// starts with prefix, keyed by the name without prefix and labels.
func (s *server) gauges(prefix string) (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			out[strings.TrimPrefix(name, prefix)] = v
		}
	}
	return out, sc.Err()
}

// cpuSeconds is the process's user plus system time from
// /proc/<pid>/stat, in seconds (the kernel counts in 10 ms ticks).
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis: state is field 3, utime 14,
	// stime 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", data)
	}
	const clockTick = 100 // USER_HZ on Linux
	return (utime + stime) / clockTick, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
