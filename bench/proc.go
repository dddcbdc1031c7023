package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one running kfserver child.
type serverProc struct {
	cmd      *exec.Cmd
	addr     string // wire listen address, parsed from the "listening" log line
	httpAddr string // empty on a bare server
	waited   chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics when something fails
}

// children tracks every live child so that no exit path — normal return,
// failed check, panic on the main goroutine, SIGINT/SIGTERM — leaves a
// process behind. (setDeathSignal additionally covers a SIGKILLed bench.)
// Each entry's kill stops its child, waits until it has ended, and
// forgets it.
var children struct {
	mu    sync.Mutex
	procs map[interface{ kill() }]struct{}
}

func trackChild(p interface{ kill() }) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.procs == nil {
		children.procs = make(map[interface{ kill() }]struct{})
	}
	children.procs[p] = struct{}{}
}

func forgetChild(p interface{ kill() }) {
	children.mu.Lock()
	defer children.mu.Unlock()
	delete(children.procs, p)
}

func killAllChildren() {
	children.mu.Lock()
	procs := make([]interface{ kill() }, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// heater is one child that does nothing but keep a CPU busy at the
// kernel's idle priority (SCHED_IDLE: anything else runnable preempts it
// at once, so it takes no CPU from the server or the generator). On this
// kind of box — a small VM — an idle vCPU is halted and handed back to
// the host, and waking it costs anything from tens of microseconds to
// milliseconds depending on the host's mood; that, not the server, was
// most of the run-to-run spread of the paced latencies. With every CPU
// kept busy, a wake-up is a context switch.
type heater struct{ cmd *exec.Cmd }

// startHeaters starts one heater per CPU by re-running this binary with
// heaterArg. Where the idle policy does not exist the child exits at
// once and the run goes on without.
func startHeaters() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		h := &heater{cmd: exec.Command(self, heaterArg)}
		setDeathSignal(h.cmd)
		if err := h.cmd.Start(); err != nil {
			return fmt.Errorf("starting heater: %w", err)
		}
		trackChild(h)
	}
	return nil
}

func (h *heater) kill() {
	_ = h.cmd.Process.Kill()
	_ = h.cmd.Wait() // reaped; "signal: killed" is the expected end
	forgetChild(h)
}

// heaterArg, as the only argument, turns the process into a heater.
const heaterArg = "-heater"

// heat is a heater's whole life: drop to the idle policy, then spin until
// killed. It returns only if the policy could not be set.
func heat() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	if err := setIdlePolicy(); err != nil {
		return
	}
	for {
	}
}

// installSignalCleanup kills the children and exits when the bench itself
// is interrupted.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killAllChildren()
		os.Exit(130)
	}()
}

// startupTimeout bounds the wait for a child's "listening" line; a
// restart replaying a write-ahead log sits inside it.
const startupTimeout = 30 * time.Second

// startServer launches the kfserver binary on an ephemeral loopback port
// and returns once it is accepting connections. withHTTP also arms the
// HTTP surface (and with it health, history and diag, as deployed).
func startServer(bin string, withHTTP bool, extra ...string) (*serverProc, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	p := &serverProc{waited: make(chan struct{})}
	if withHTTP {
		// kfserver logs the -http flag verbatim, not the bound address, so
		// ":0" would be unfindable: reserve a free port and hand it over.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		p.httpAddr = l.Addr().String()
		l.Close()
		args = append(args, "-http", p.httpAddr)
	}
	p.cmd = exec.Command(bin, append(args, extra...)...)
	setDeathSignal(p.cmd)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	trackChild(p)

	addrCh := make(chan string, 1) // one send: the first "listening" line
	go p.drain(stderr, addrCh)
	select {
	case p.addr = <-addrCh:
	case <-p.waited:
		return nil, fmt.Errorf("kfserver exited during start-up:\n%s", p.stderrTail())
	case <-time.After(startupTimeout):
		p.kill()
		return nil, fmt.Errorf("kfserver did not listen within %v:\n%s", startupTimeout, p.stderrTail())
	}
	if withHTTP {
		if err := waitDial(p.httpAddr, 5*time.Second); err != nil {
			p.kill()
			return nil, fmt.Errorf("kfserver http %s: %w", p.httpAddr, err)
		}
	}
	return p, nil
}

// drain consumes the child's stderr for its whole life (a full pipe would
// block the server), publishes the listen address once, keeps a short
// tail, and reaps the process at EOF.
func (p *serverProc) drain(stderr io.Reader, addrCh chan<- string) {
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	found := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		if len(p.tail) == 20 {
			p.tail = p.tail[1:]
		}
		p.tail = append(p.tail, line)
		p.mu.Unlock()
		if !found {
			if addr, ok := parseListening(line); ok {
				found = true
				addrCh <- addr
			}
		}
	}
	_ = p.cmd.Wait()
	close(p.waited)
}

// parseListening extracts the bound address from kfserver's slog text
// line `… msg=listening addr=127.0.0.1:43121 trace=false …`.
func parseListening(line string) (string, bool) {
	if !strings.Contains(line, "msg=listening ") {
		return "", false
	}
	_, rest, ok := strings.Cut(line, " addr=")
	if !ok {
		return "", false
	}
	addr, _, _ := strings.Cut(rest, " ")
	return strings.Trim(addr, `"`), addr != ""
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func (p *serverProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// kill SIGKILLs the child and waits until it has been reaped. Safe to
// call more than once.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.waited
	forgetChild(p)
}

func waitDial(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// buildServer compiles ./cmd/kfserver from the module at root into out.
// The go tool's own cache makes every build after the first a no-op check.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/kfserver")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/kfserver: %w\n%s", err, b)
	}
	return nil
}
