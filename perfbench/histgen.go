package main

import (
	"fmt"
	"math/rand"

	"github.com/drv-go/drv/exp/monitor"
	"github.com/drv-go/drv/exp/trace"
)

// history is one generated stream input: a well-formed concurrent history
// of a sequential object, the monitor that judges it, and its ground-truth
// label.
type history struct {
	logic  string // wire logic name: "lin" or "sc"
	object string // wire object name: "queue" or "register"
	n      int
	word   trace.Word
	// linearizable is the exp/monitor.Linearizable label; a stream with a
	// false label must draw at least one NO.
	linearizable bool
}

func objectOf(name string) trace.Object {
	switch name {
	case "queue":
		return trace.Queue()
	case "register":
		return trace.Register()
	}
	panic("perfbench: unknown object " + name)
}

// genWord interleaves operations of n processes on the object. Each
// operation takes effect at a point strictly between its invocation and its
// response (its linearization point), so the history is linearizable by
// construction. Written and enqueued values are unique, which is what lets
// corrupt break the history for any interleaving. A queue is kept short:
// while more than one item waits, dequeues are drawn three times as often
// as enqueues. (On a queue left to grow, the monitor's witness searches
// explode: a 600-event history took 14 s to replay; see README.md.) The
// word has about events symbols; every operation completes.
func genWord(rng *rand.Rand, obj trace.Object, n, events int) trace.Word {
	type proc struct {
		phase int // 0 idle, 1 invoked, 2 applied
		op    string
		arg   trace.Value
		ret   trace.Value
	}
	ops := obj.Ops()
	procs := make([]proc, n)
	state := obj.Init()
	w := make(trace.Word, 0, events+2*n)
	next := int64(1)
	open := 0
	queued := 0
	for len(w) < events || open > 0 {
		id := rng.Intn(n)
		p := &procs[id]
		switch p.phase {
		case 0:
			if len(w)+2*open+2 > events {
				continue
			}
			sig := ops[rng.Intn(len(ops))]
			if sig.Name == trace.OpEnq && queued > 1 && rng.Intn(2) == 0 {
				sig = trace.OpSig{Name: trace.OpDeq, Mutating: true}
			}
			p.op, p.arg = sig.Name, trace.Unit{}
			if sig.Mutating && (sig.Name == trace.OpWrite || sig.Name == trace.OpEnq) {
				p.arg = trace.Int(next)
				next++
			}
			w = append(w, trace.NewInv(id, p.op, p.arg))
			p.phase = 1
			open++
		case 1:
			var ok bool
			state, p.ret, ok = state.Apply(p.op, p.arg)
			if p.op == trace.OpEnq {
				queued++
			} else if p.op == trace.OpDeq && !p.ret.Equal(trace.Empty) {
				queued--
			}
			if !ok {
				panic(fmt.Sprintf("perfbench: %s rejects %s(%v)", obj.Name(), p.op, p.arg))
			}
			p.phase = 2
		case 2:
			w = append(w, trace.NewRes(id, p.op, p.ret))
			p.phase = 0
			open--
		}
	}
	return w
}

// corrupt rewrites one response so that no sequential order explains the
// history, whatever the interleaving: a queue history gets a duplicate
// dequeue (a later dequeue returns a value an earlier one already took), a
// register history a stale read (a process reads its own value after
// overwriting it). It reports false when the word has no place for the
// rewrite.
func corrupt(object string, w trace.Word) bool {
	switch object {
	case "queue":
		taken := trace.Value(nil)
		for i, s := range w {
			if s.Kind != trace.Res || s.Op != trace.OpDeq || s.Val.Equal(trace.Empty) {
				continue
			}
			if taken == nil {
				taken = s.Val
				continue
			}
			w[i].Val = taken
			return true
		}
	case "register":
		// Per process: the last two values it wrote (a completed write of a,
		// then of b), then its next read returns a.
		type wrote struct{ a, b trace.Value }
		last := map[int]*wrote{}
		pending := map[int]trace.Value{}
		for i, s := range w {
			switch {
			case s.Kind == trace.Inv && s.Op == trace.OpWrite:
				pending[s.Proc] = s.Val
			case s.Kind == trace.Res && s.Op == trace.OpWrite:
				l := last[s.Proc]
				if l == nil {
					l = &wrote{}
					last[s.Proc] = l
				}
				l.a, l.b = l.b, pending[s.Proc]
			case s.Kind == trace.Res && s.Op == trace.OpRead:
				if l := last[s.Proc]; l != nil && l.a != nil {
					w[i].Val = l.a
					return true
				}
			}
		}
	}
	return false
}

// genHistory draws one history; bad asks for the stale or duplicate
// variant. The history is checked with exptrace.WellFormed and labelled with
// exp/monitor.Linearizable.
func genHistory(rng *rand.Rand, logic, object string, n, events int, bad bool) (history, error) {
	obj := objectOf(object)
	for {
		w := genWord(rng, obj, n, events)
		if bad && !corrupt(object, w) {
			continue
		}
		if err := trace.WellFormed(w); err != nil {
			return history{}, fmt.Errorf("generated history: %w", err)
		}
		lin, err := monitor.Linearizable(obj, w)
		if err != nil {
			return history{}, err
		}
		if bad && lin {
			return history{}, fmt.Errorf("corrupted %s history is still linearizable", object)
		}
		if !bad && !lin {
			return history{}, fmt.Errorf("generated %s history is not linearizable", object)
		}
		return history{logic: logic, object: object, n: n, word: w, linearizable: lin}, nil
	}
}
