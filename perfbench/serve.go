package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
	"github.com/drv-go/drv/internal/serve"
)

// verdictRec is one verdict line, as served or as replayed.
type verdictRec struct {
	Proc, Index, Step, Hist int
	Verdict                 string
}

// instance is one stream as sent on one connection: an id (reused across
// instances), its history and reference verdicts, when its input was due,
// and a summary of what came back. Verdict lines are checked against the
// reference as they arrive, so the client holds no per-line state.
type instance struct {
	h     *history
	hidx  int          // index into the workload's history list
	want  []verdictRec // the exp/monitor replay of h
	id    string
	batch *batch // closed loop only

	openLine, closeLine int       // request line numbers, for the order count
	due0                time.Time // when the open line (hist 0) was due
	closeAt             time.Time
	// cpuDue[hist] is the process CPU time when the line that makes
	// symbol hist due was written; a shorter slice holds its last entry
	// for every later hist (closed loop: the whole block at once).
	cpuDue []float64

	verdicts int    // verdict lines received
	no       int    // NO verdicts among them
	mismatch string // the first verdict line that differs from want
	done     *serve.Done
	doneAt   time.Time
	opened   int
	errs     []string
}

// dueCPU returns the process CPU time when symbol hist of the stream was
// sent.
func (in *instance) dueCPU(hist int) float64 { return in.cpuDue[min(hist, len(in.cpuDue)-1)] }

// observe checks the next served verdict line against the reference.
func (in *instance) observe(v verdictRec) {
	i := in.verdicts
	in.verdicts++
	if v.Verdict == "NO" {
		in.no++
	}
	if in.mismatch != "" {
		return
	}
	if i >= len(in.want) {
		in.mismatch = fmt.Sprintf("verdict %d %+v is beyond the replay's %d", i, v, len(in.want))
	} else if v != in.want[i] {
		in.mismatch = fmt.Sprintf("verdict %d is %+v, replay has %+v", i, v, in.want[i])
	}
}

// batch is a closed-loop window unit: its streams are written back to back.
// The writer takes a free window slot before writing a batch; the reader
// hands the slot back, stamped with the time it freed, when the batch's last
// done line arrives.
type batch struct {
	left int
	free chan time.Time
}

// client is one connection's load generator state. The writer registers an
// instance before sending its lines; the reader matches response lines to
// instances by id, in the per-id order the server guarantees, and gates each
// stream when its done line arrives. What the client keeps does not grow with
// the run unless keep is set, so peak memory is the server's.
type client struct {
	conn net.Conn
	bw   *bufio.Writer
	keep bool // keep every finished instance: traced runs need their times

	line int // request lines written; owned by the writer

	mu        sync.Mutex
	awaitOpen map[string][]*instance // per id, instances whose opened line is due
	awaitDone map[string][]*instance // per id, instances whose done line is due
	all       []*instance            // finished instances, when keep is set
	lat       histogram              // CPU ms per verdict line

	registered, finished, verdicts int
	lastDone                       time.Time
	failed                         int      // streams the gate failed
	problems                       []string // the first few gate failures

	maxReq int
	// orderViolations counts response lines that arrive after a response
	// to a later request line: the connection-level order race.
	orderViolations int
	connErrs        []string
	readErr         error
	readDone        chan struct{}
}

// dial connects and completes the protocol handshake.
func dial(addr string, keep bool) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{
		conn:      conn,
		keep:      keep,
		bw:        bufio.NewWriterSize(conn, 64<<10),
		awaitOpen: map[string][]*instance{},
		awaitDone: map[string][]*instance{},
		readDone:  make(chan struct{}),
	}
	hello, _ := json.Marshal(serve.Request{Config: &serve.ClientConfig{Protocol: serve.ProtocolVersion}})
	c.line = 1
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		conn.Close()
		return nil, err
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	ack, err := r.ReadBytes('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	var resp serve.Response
	if err := json.Unmarshal(ack, &resp); err != nil || resp.Config == nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: unexpected %q", ack)
	}
	go c.read(r)
	return c, nil
}

// register enters an instance before its open line is written.
func (c *client) register(in *instance) {
	c.line++
	c.mu.Lock()
	in.openLine = c.line
	c.awaitOpen[in.id] = append(c.awaitOpen[in.id], in)
	c.awaitDone[in.id] = append(c.awaitDone[in.id], in)
	c.registered++
	c.mu.Unlock()
}

// closing counts k more request lines, the last of which is the
// instance's close line.
func (c *client) closing(in *instance, k int) {
	c.line += k
	c.mu.Lock()
	in.closeLine = c.line
	c.mu.Unlock()
}

func (c *client) order(req int) {
	if req < c.maxReq {
		c.orderViolations++
	} else {
		c.maxReq = req
	}
}

// read decodes response lines until EOF.
func (c *client) read(r *bufio.Reader) {
	defer close(c.readDone)
	for {
		raw, err := r.ReadBytes('\n')
		now, cpu := time.Now(), cpuSeconds()
		if len(raw) > 0 {
			c.handle(raw, now, cpu)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.mu.Lock()
				c.readErr = err
				c.mu.Unlock()
			}
			return
		}
	}
}

func (c *client) handle(raw []byte, now time.Time, cpu float64) {
	var resp serve.Response
	err := json.Unmarshal(raw, &resp)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err != nil:
		c.connErrs = append(c.connErrs, fmt.Sprintf("undecodable response %q: %v", raw, err))
	case resp.Opened != nil:
		q := c.awaitOpen[resp.Opened.Stream]
		if len(q) == 0 {
			c.connErrs = append(c.connErrs, "unexpected opened for "+resp.Opened.Stream)
			return
		}
		c.awaitOpen[resp.Opened.Stream] = q[1:]
		q[0].opened++
		c.order(q[0].openLine)
	case resp.Verdict != nil:
		v := resp.Verdict
		q := c.awaitDone[v.Stream]
		if len(q) == 0 {
			c.connErrs = append(c.connErrs, "verdict for no open stream "+v.Stream)
			return
		}
		in := q[0]
		in.observe(verdictRec{Proc: v.Proc, Index: v.Index, Step: v.Step, Hist: v.Hist, Verdict: v.Verdict})
		c.lat.add((cpu - in.dueCPU(v.Hist)) * 1e3)
		c.order(in.closeLine)
	case resp.Done != nil:
		q := c.awaitDone[resp.Done.Stream]
		if len(q) == 0 {
			c.connErrs = append(c.connErrs, "done for no open stream "+resp.Done.Stream)
			return
		}
		c.awaitDone[resp.Done.Stream] = q[1:]
		in := q[0]
		d := *resp.Done
		in.done, in.doneAt = &d, now
		c.order(in.closeLine)
		c.finished++
		c.verdicts += in.verdicts
		c.lastDone = now
		c.settle(in)
		if b := in.batch; b != nil {
			if b.left--; b.left == 0 {
				b.free <- now
			}
		}
	case resp.Error != nil:
		e := resp.Error
		if q := c.awaitDone[e.Stream]; e.Stream != "" && len(q) > 0 {
			q[0].errs = append(q[0].errs, e.Msg)
			return
		}
		c.connErrs = append(c.connErrs, fmt.Sprintf("line %d: %s", e.Line, e.Msg))
	default:
		c.connErrs = append(c.connErrs, fmt.Sprintf("unexpected response %q", raw))
	}
}

// settle gates a finished (or abandoned) instance. Call with mu held.
func (c *client) settle(in *instance) {
	if err := checkInstance(in); err != nil {
		c.failed++
		if len(c.problems) < 5 {
			c.problems = append(c.problems, fmt.Sprintf("stream %s (history %d): %v", in.id, in.hidx, err))
		}
	}
	if c.keep {
		c.all = append(c.all, in)
	}
}

// finish half-closes the connection, waits for the server to deliver every
// outstanding response, and gates the streams that never got a done line.
func (c *client) finish() error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if tc, ok := c.conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return err
		}
	}
	<-c.readDone
	c.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, q := range c.awaitDone {
		for _, in := range q {
			c.settle(in)
		}
		delete(c.awaitDone, id)
	}
	return c.readErr
}

// streamLines encodes one stream's request lines: open, meta, one event per
// symbol, close. This NDJSON is all the server receives.
func streamLines(id string, h *history) ([][]byte, error) {
	lines := make([][]byte, 0, len(h.word)+3)
	add := func(r serve.Request) error {
		b, err := json.Marshal(r)
		lines = append(lines, append(b, '\n'))
		return err
	}
	if err := add(serve.Request{Open: &serve.Open{Stream: id, Logic: h.logic, Object: h.object}}); err != nil {
		return nil, err
	}
	if err := add(serve.Request{Event: &serve.StreamEvent{Stream: id, Event: trace.Event{Kind: trace.KindMeta, Meta: &trace.Meta{N: h.n}}}}); err != nil {
		return nil, err
	}
	for _, s := range h.word {
		ev, err := trace.EncodeSymbol(s)
		if err != nil {
			return nil, err
		}
		if err := add(serve.Request{Event: &serve.StreamEvent{Stream: id, Event: ev}}); err != nil {
			return nil, err
		}
	}
	return lines, add(serve.Request{Close: &serve.CloseStream{Stream: id}})
}

// server is a running in-process drvserve: the same Server over TCP on the
// loopback interface.
type server struct {
	srv    *serve.Server
	addr   string
	served chan error
}

func startServer(shards int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Config{Shards: shards}), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, serve.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// warm sends each history once, pipelined on one fresh connection, and
// waits for every done line. Warm streams carry no reference, so only their
// delivery is checked.
func (s *server) warm(hs []history) error {
	c, err := dial(s.addr, false)
	if err != nil {
		return err
	}
	for i := range hs {
		lines, err := streamLines("warm", &hs[i])
		if err != nil {
			return err
		}
		in := &instance{h: &hs[i], id: "warm", due0: time.Now(), cpuDue: []float64{cpuSeconds()}}
		c.register(in)
		c.closing(in, len(lines)-1)
		for _, l := range lines {
			c.bw.Write(l)
		}
	}
	if err := c.finish(); err != nil {
		return err
	}
	if c.finished != len(hs) || len(c.connErrs) > 0 {
		return fmt.Errorf("warm pass: %d of %d streams done, %v", c.finished, len(hs), c.connErrs)
	}
	return nil
}

// replayAll computes the reference verdicts of every history with
// exp/monitor, on workers goroutines with one Session each.
func replayAll(hs []history, workers int) ([][]verdictRec, error) {
	ref := make([][]verdictRec, len(hs))
	errs := make([]error, len(hs))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := monitor.NewSession()
			defer s.Close()
			for i := w; i < len(hs); i += workers {
				res, err := s.Run(configOf(&hs[i]))
				if err != nil {
					errs[i] = err
					continue
				}
				ref[i] = verdictsOf(res)
			}
		}()
	}
	wg.Wait()
	return ref, errors.Join(errs...)
}

func configOf(h *history) monitor.Config {
	logic := monitor.LogicLin
	if h.logic == "sc" {
		logic = monitor.LogicSC
	}
	return monitor.Config{N: h.n, Object: objectOf(h.object), Logic: logic, History: h.word}
}

// verdictsOf lists a replay's verdicts in the order the server emits them.
func verdictsOf(res *monitor.Result) []verdictRec {
	var out []verdictRec
	for p := range res.Verdicts {
		for k, v := range res.Verdicts[p] {
			hist := 0
			if k < len(res.HistAt[p]) {
				hist = res.HistAt[p][k]
			}
			out = append(out, verdictRec{Proc: p, Index: k, Step: res.StepAt[p][k], Hist: hist, Verdict: v.String()})
		}
	}
	return out
}

// gate reports the streams the clients failed, and returns their number.
func gate(out *outcome, clients []*client) int {
	failed := 0
	for _, c := range clients {
		for _, e := range c.connErrs {
			out.problem("connection: %s", e)
		}
		for _, p := range c.problems {
			out.problem("%s", p)
		}
		failed += c.failed
	}
	return failed
}

func checkInstance(in *instance) error {
	switch {
	case len(in.errs) > 0:
		return fmt.Errorf("error line: %s", in.errs[0])
	case in.opened != 1:
		return fmt.Errorf("%d opened lines", in.opened)
	case in.done == nil:
		return errors.New("no done line")
	case in.done.Truncated:
		return errors.New("truncated")
	case in.done.Events != len(in.h.word):
		return fmt.Errorf("done reports %d events, sent %d", in.done.Events, len(in.h.word))
	case in.done.Verdicts != in.verdicts || in.done.NO != in.no:
		return fmt.Errorf("done reports %d verdicts (%d NO), received %d (%d NO)", in.done.Verdicts, in.done.NO, in.verdicts, in.no)
	case in.mismatch != "":
		return errors.New(in.mismatch)
	case in.verdicts != len(in.want):
		return fmt.Errorf("%d verdicts, replay has %d", in.verdicts, len(in.want))
	case !in.h.linearizable && in.no == 0:
		return errors.New("non-linearizable stream drew no NO")
	}
	return nil
}

// latencies pools the verdict latencies of every connection.
func latencies(clients []*client) *histogram {
	var h histogram
	for _, c := range clients {
		h.merge(&c.lat)
	}
	return &h
}
