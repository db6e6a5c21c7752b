package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"holistic/internal/server/api"
)

// daemon is one windowd process built from the tree under test, listening
// on an ephemeral loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been waited for

	mu   sync.Mutex
	logs []string // last lines of its stderr, for error reports

	stopOnce sync.Once
	hwmMB    float64
}

const keepLogLines = 20

// startDaemon runs bin with args on 127.0.0.1:0 and waits until it reports
// its listening address. The process dies with the benchmark even if the
// benchmark is killed (Pdeathsig), and stop must be called on every path.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("windowd stderr: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start windowd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			line := sc.Text()
			d.log(line)
			if strings.Contains(line, `msg="windowd listening"`) {
				if _, a, ok := strings.Cut(line, " addr="); ok {
					a, _, _ = strings.Cut(a, " ")
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
		// Drain whatever follows a scanner error, so the process never
		// blocks on a full pipe; Wait must follow the last read.
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
	}()
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("windowd exited before listening: %s", d.lastLogs())
	case <-timer.C:
		d.stop()
		return nil, errors.New("windowd did not report a listening address within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

func (d *daemon) log(line string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.logs = append(d.logs, line)
	if len(d.logs) > keepLogLines {
		d.logs = d.logs[len(d.logs)-keepLogLines:]
	}
}

func (d *daemon) lastLogs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logs, "\n")
}

// stop reads the process's peak RSS, kills it and waits for it to exit. It
// is idempotent and returns the peak RSS in MiB (0 if it was unreadable).
func (d *daemon) stop() float64 {
	d.stopOnce.Do(func() {
		d.hwmMB, _ = peakRSSMB(d.cmd.Process.Pid)
		_ = d.cmd.Process.Kill()
		<-d.exited
	})
	return d.hwmMB
}

// peakRSSMB reads VmHWM of a process from /proc, in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// reqTiming collects the wire timestamps of one traced request.
type reqTiming struct {
	wrote, firstByte, bodyDone time.Time
	bytes                      int64
}

type timingKey struct{}

// timingTransport times response bodies of requests whose context carries
// a *reqTiming; others pass through untouched. It lets the traced run use
// the same api.Client path as the untraced one and still split the wire
// time into server time-to-first-byte, transfer and client decode.
type timingTransport struct{ base http.RoundTripper }

func (t timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if rt, ok := req.Context().Value(timingKey{}).(*reqTiming); ok {
		resp.Body = &timedBody{ReadCloser: resp.Body, rt: rt}
	}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	rt *reqTiming
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rt.bytes += int64(n)
	if err == io.EOF && b.rt.bodyDone.IsZero() {
		b.rt.bodyDone = time.Now()
	}
	return n, err
}

// withTiming returns ctx traced into rt.
func withTiming(ctx context.Context, rt *reqTiming) context.Context {
	ctx = context.WithValue(ctx, timingKey{}, rt)
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { rt.wrote = time.Now() },
		GotFirstResponseByte: func() { rt.firstByte = time.Now() },
	})
}

// newClient returns an api.Client for d with its own connection pool.
func newClient(d *daemon) (*api.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	c := &api.Client{
		BaseURL:    "http://" + d.addr,
		HTTPClient: &http.Client{Transport: timingTransport{base: tr}, Timeout: 2 * time.Minute},
	}
	return c, tr.CloseIdleConnections
}
