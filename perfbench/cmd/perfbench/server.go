package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// server is one flowbenchd child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://addr
}

// startServer launches flowbenchd over root and waits until it listens.
func startServer(bin, root string, budget int64) (*server, error) {
	cmd := exec.Command(bin, "-root", root, "-budget", strconv.FormatInt(budget, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("server did not report its address (read %q: %v)", line, err)
	}
	go io.Copy(io.Discard, out)
	return &server{cmd: cmd, base: "http://" + addr}, nil
}

// kill SIGKILLs the server and waits for it to exit: no drain, no
// checkpoint — what a crash leaves behind.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// awaitReady reads one view of every project, in order, over a single
// connection: the server is ready when every project has answered.
func awaitReady(base string, meta *fixtureMeta) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for _, pm := range meta.Projects {
		resp, err := c.Get(base + "/p/" + pm.ID + "/dashboard")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("readiness read of %s: status %d", pm.ID, resp.StatusCode)
		}
	}
	return nil
}

// restart starts a server over root and times it to readiness.
func restart(bin, root string, budget int64, meta *fixtureMeta) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin, root, budget)
	if err != nil {
		return nil, 0, err
	}
	if err := awaitReady(s.base, meta); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}
