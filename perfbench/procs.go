package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// proc is a child process the benchmark started. Stop ends it and waits
// for it; the kernel also kills it if the benchmark itself dies.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has ended
	log  *os.File
}

// startProc runs bin with args, sending its output to logPath.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), log: lf}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down, kills it if it has not ended
// within 15 s, and waits until it has.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitStatus polls url until it answers with want, the process exits, or
// the deadline passes.
func waitStatus(ctx context.Context, p *proc, url string, want int, within time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, within)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == want {
				return nil
			}
			return fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, want)
		}
		if p.exited() {
			return fmt.Errorf("process exited before answering %s (see %s)", url, p.log.Name())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("GET %s: no answer: %w", url, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
