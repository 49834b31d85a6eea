package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clients is the connection budget: the benchmark host has two cores, and
// one client per core keeps the load generator from starving the server.
const clients = 2

// server is one rsgend process under test.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
}

// serverOpts are the per-workload rsgend settings.
type serverOpts struct {
	stateDir string // -state-dir, empty for in-memory
	obsDir   string // -obs-dir, empty for in-memory
}

// startServer execs rsgend on the trained artifact and returns at once;
// the caller's first request waits for the listener (see client.ready).
func startServer(bin, models, runDir string, o serverOpts) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-models", models, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-log-level", "warn", "-slow-request", "0"}
	if o.stateDir != "" {
		args = append(args, "-state-dir", o.stateDir)
	}
	if o.obsDir != "" {
		args = append(args, "-obs-dir", o.obsDir)
	}
	logf, err := os.Create(filepath.Join(runDir, "rsgend.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// rsgend must not outlive the benchmark, even when the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start rsgend: %w", err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// stop drains rsgend with SIGTERM (a durable store folds its WAL into a
// snapshot on the way out) and waits for it to exit, killing it if the
// drain overruns.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		// rsgend answers requests before it installs its SIGTERM handler,
		// so a set-up sample stopped right after its first answer can die
		// of the signal itself. That is the stop we asked for, not a crash.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("rsgend did not drain within 20s; killed")
	}
}

// kill ends rsgend without a drain (error paths) and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case err := <-s.done:
		s.done <- err
		return false
	default:
		return true
	}
}

// cpuTime reads rsgend's user+system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", rest)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSS reads rsgend's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// client drives one server over loopback HTTP with at most `clients`
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send sends one request, reads the whole answer, and fails on any non-2xx
// status.
func (c *client) send(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// ready waits until the listener accepts connections: it retries GET
// /healthz until it answers, polling every millisecond so the wait adds
// little to the measured set-up time.
func (c *client) ready(s *server, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		resp, err := c.hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		if !s.alive() {
			return errors.New("rsgend exited during start-up; see its log")
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("rsgend not listening after %v: %w", limit, err)
		case <-time.After(time.Millisecond):
		}
	}
}

// metrics is one /metrics scrape: series (name plus labels) to value.
type metrics map[string]float64

func (c *client) scrape() (metrics, error) {
	b, err := c.send(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseMetrics(b), nil
}

// parseMetrics reads the Prometheus text exposition.
func parseMetrics(b []byte) metrics {
	m := metrics{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// sub returns the per-series delta after − before.
func (after metrics) sub(before metrics) metrics {
	d := metrics{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
