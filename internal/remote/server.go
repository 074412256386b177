package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Addr returns the listening address.
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every connection (cancelling the
// contexts of in-flight kernels), and waits for all handlers to unwind.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		// Shutdown already closed the listener; that is not a failure
		// of this Close.
		return nil
	}
	return err
}

// Shutdown drains the service gracefully: stop accepting connections,
// refuse every new request that would run on its own goroutine with
// ErrCodeUnavailable (so a fleet re-dispatches a refused Compute to a
// surviving member instead of losing the frame), let the requests
// already running finish and their replies reach the wire, then sever
// what remains. ctx bounds the wait — when it expires the remaining
// requests are cut off Close-style. This is what cmd/vizworker runs on
// SIGINT/SIGTERM, so killing a worker mid-compute hands its frames back
// rather than truncating them.
func (s *Service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return s.Close()
}

// acceptLoop hands each accepted connection to handle on its own
// goroutine and tracks it, so Close can sever it.
func (s *Service) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// handle runs one connection: handshake, then a read loop. A framing
// error (bad length, bad CRC) terminates the connection — the stream
// can no longer be trusted; a well-framed request is answered, if only
// with a typed refusal (admit), and the connection stays up. The
// session envelope: a session-table row with an admission verdict, a
// read deadline that reaps a peer silent past the idle timeout from the
// handshake on (live clients heartbeat well inside it), a write
// deadline of the same length on every write, so a peer that stops
// reading cannot park the loop — behind a re-subscribe waiting out a
// parked drain, or in a reply — where the read deadline never fires,
// and a context that cancels the work in flight when the connection
// dies.
func (s *Service) handle(conn net.Conn) {
	idle := orDefault(s.opts.IdleTimeout, DefaultServiceIdleTimeout)
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
	if err := serverHello(conn); err != nil {
		return
	}
	sess := s.addSession(conn.RemoteAddr().String())
	defer s.removeSession(sess)

	br := bufio.NewReaderSize(conn, 1<<16)
	w := newConnWriter(conn, idle)

	// On exit (defers run last-in-first-out): close the connection, so
	// that a write parked on a peer that stopped reading — a reply, a
	// subscriber's drain — returns; cancel the requests' context; then
	// wait for them, which in the reverse order would deadlock behind a
	// kernel parked on ctx; and last drop the session and its queue.
	var reqs sync.WaitGroup
	defer reqs.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer conn.Close()

	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		msg, err := readMessage(br, 0)
		if err != nil {
			return
		}
		async, refusal := s.admit(sess, msg.op)
		switch {
		case refusal != nil:
			msg.recycle()
			err = w.sendErr(msg.reqID, refusal)
		case async:
			reqs.Add(1)
			s.inflight.Add(1)
			go func() {
				defer reqs.Done()
				defer s.inflight.Done()
				s.serve(ctx, sess, w, msg)
			}()
		default:
			err = s.serve(ctx, sess, w, msg)
		}
		if err != nil {
			return
		}
	}
}

// admit decides a request of opcode op on sess: refused with a typed
// error, or served — on its own goroutine when async, so an expensive
// render or a slow kernel does not stall the requests behind it. Ping
// is answered in every state; a refused session gets ErrCodeUnavailable
// for everything else; a verb the service does not hold gets
// ErrCodeUnknownVerb; while draining, an async request gets
// ErrCodeUnavailable.
func (s *Service) admit(sess *session, op byte) (async bool, refusal error) {
	if op == opPing {
		return false, nil
	}
	if sess.refused {
		return false, &WireError{Code: ErrCodeUnavailable, Msg: "remote: server at session capacity, retry later"}
	}
	var holds bool
	switch op {
	case opList, opGet, opGetDelta, opRender:
		holds, async = s.store != nil, true
	case opSubscribe:
		holds = s.store != nil
	case opCompute:
		holds, async = s.hostsKernels(), true
	case opKernels:
		holds = s.hostsKernels()
	case opStats:
		holds = true
	}
	if !holds {
		return false, &WireError{
			Code: ErrCodeUnknownVerb,
			Msg:  fmt.Sprintf("remote: server does not speak opcode %#02x", op),
		}
	}
	if async && s.draining.Load() {
		return false, &WireError{Code: ErrCodeUnavailable, Msg: "remote: server is draining"}
	}
	return async, nil
}

// serve answers one admitted request, then returns its buffer to the
// payload free list, and a kernel's reply with it: a kernel reply is
// the one reply built in a recycled buffer.
func (s *Service) serve(ctx context.Context, sess *session, w *connWriter, msg message) error {
	out, err := s.answer(ctx, sess, w, msg)
	err = w.reply(msg.reqID, msg.op, out, err)
	msg.recycle()
	if msg.op == opCompute {
		putBytes(out)
	}
	return err
}

// connWriter serializes response writes from concurrent request
// handlers and the subscription notifier onto one connection. A write
// error — a write the peer did not take within the idle timeout among
// them — severs the connection: the response stream can no longer be
// trusted, and closing unblocks the read loop so the handler unwinds.
type connWriter struct {
	conn    net.Conn
	timeout time.Duration // per-write deadline; 0 or negative: none
	mu      sync.Mutex
	bw      *bufio.Writer
}

func newConnWriter(conn net.Conn, timeout time.Duration) *connWriter {
	return &connWriter{conn: conn, timeout: timeout, bw: bufio.NewWriterSize(conn, 1<<16)}
}

// send frames the segments as one payload without joining them — the
// broadcast path writes a shared frame encoding to N connections with
// only a per-connection header built fresh.
func (w *connWriter) send(reqID uint64, op byte, segs ...[]byte) error {
	w.mu.Lock()
	if w.timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	err := writeMessage(w.bw, reqID, op, segs...)
	w.mu.Unlock()
	if err != nil {
		w.conn.Close()
	}
	return err
}

// sendErr answers a request with a typed error reply (WireError code +
// message); non-WireErrors go out as ErrCodeGeneric.
func (w *connWriter) sendErr(reqID uint64, err error) error {
	return w.send(reqID, opError, encodeWireError(err))
}

// reply answers a request of opcode op: err as an error reply, else
// payload under op|replyBit. A payload over the message limit is
// answered with an error for this request alone, instead of letting
// writeMessage fail and sever every other request on the connection.
func (w *connWriter) reply(reqID uint64, op byte, payload []byte, err error) error {
	if err == nil && len(payload) > maxBody-msgOverhead {
		err = fmt.Errorf("remote: reply to opcode %#02x (%d bytes) exceeds the message limit", op, len(payload))
	}
	if err != nil {
		return w.sendErr(reqID, err)
	}
	return w.send(reqID, op|replyBit, payload)
}
