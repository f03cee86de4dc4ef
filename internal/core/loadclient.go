package core

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// LeaseClient is the client side of the Drivolution bootstrap protocol:
// the one place that sends REQUEST, DISCOVER, FILE_REQUEST and RELEASE
// frames and classifies the server's answers. The Bootloader runs its
// bootstrap, renewal, discovery and release exchanges on one, Probe runs
// its one-shot DISCOVER on one, and workload.Fleet multiplexes many
// *virtual* bootloaders over a bounded pool of them. A LeaseClient is
// single-goroutine and owns no driver, renewal timer or lease: each call
// runs one exchange on behalf of whatever (lease, checksum) identity the
// caller hands it.
//
// Error contract: a *ProtocolError (the server answered with
// DRIVOLUTION_ERROR) or *Redirect (a cluster member named the shard
// owner) return means the exchange completed cleanly and the connection
// remains usable. Any other error is a transport or framing failure: the
// stream may be mid-frame, so the client poisons itself — every later
// call fails fast with ErrLeaseClientPoisoned and the caller must Close
// and dial a replacement. That mirrors ConnStore's redial contract:
// never reuse a stream you cannot prove is on a frame boundary.
type LeaseClient struct {
	conn     *wire.Conn
	timeout  time.Duration
	poisoned bool
	// answered records whether any answer frame arrived since the last
	// REQUEST, DISCOVER or RELEASE was sent (a FILE_REQUEST continues
	// the exchange whose OFFER staged the transfer); see unanswered.
	answered bool
}

// ErrLeaseClientPoisoned is returned by every call after a transport
// failure; the caller must Close and dial a fresh client.
var ErrLeaseClientPoisoned = fmt.Errorf("core: lease client poisoned by earlier transport failure")

// DialLeaseClient connects to a Drivolution server. opTimeout bounds
// every response wait (and is also the dial timeout when positive);
// zero means no response deadline.
func DialLeaseClient(addr string, opTimeout time.Duration) (*LeaseClient, error) {
	dial := opTimeout
	if dial <= 0 {
		dial = 5 * time.Second
	}
	conn, err := wire.Dial(addr, dial)
	if err != nil {
		return nil, err
	}
	return newLeaseClient(conn, opTimeout), nil
}

// newLeaseClient runs the protocol over an established connection;
// opTimeout bounds every response wait (zero = none).
func newLeaseClient(conn *wire.Conn, opTimeout time.Duration) *LeaseClient {
	return &LeaseClient{conn: conn, timeout: opTimeout}
}

// Probe sends a one-shot DRIVOLUTION_DISCOVER to a server and returns
// its offer, without creating a lease — the administrative "which driver
// would this client get?" check used by drivoctl.
func Probe(addr string, req Request, timeout time.Duration) (Offer, error) {
	conn, err := wire.Dial(addr, timeout)
	if err != nil {
		return Offer{}, err
	}
	c := newLeaseClient(conn, timeout)
	defer c.Close()
	return c.Discover(req)
}

// Close releases the connection. Safe on a poisoned client.
func (c *LeaseClient) Close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// send writes one request frame, poisoning the client if it fails.
func (c *LeaseClient) send(typ uint16, payload []byte) error {
	if c.poisoned {
		return ErrLeaseClientPoisoned
	}
	if err := c.conn.Send(typ, payload); err != nil {
		c.poisoned = true
		return err
	}
	return nil
}

// recv reads one answer frame within the response timeout, poisoning
// the client if none arrives.
func (c *LeaseClient) recv() (wire.Frame, error) {
	f, err := c.conn.RecvTimeout(c.timeout)
	if err != nil {
		c.poisoned = true
		return f, err
	}
	c.answered = true
	return f, nil
}

// exchange opens a new exchange: it sends one request frame and reads
// the first answer frame.
func (c *LeaseClient) exchange(typ uint16, payload []byte) (wire.Frame, error) {
	c.answered = false
	if err := c.send(typ, payload); err != nil {
		return wire.Frame{}, err
	}
	return c.recv()
}

// answerError classifies an answer frame that is not the one the
// exchange hoped for. DRIVOLUTION_ERROR and REDIRECT are complete
// answers that leave the stream on a frame boundary; they decode to
// *ProtocolError and *Redirect. Anything else, or an answer that does
// not decode, poisons the client.
func (c *LeaseClient) answerError(f wire.Frame) error {
	var err error
	switch f.Type {
	case msgError:
		var pe *ProtocolError
		if pe, err = decodeProtocolError(f.Payload); err == nil {
			return pe
		}
	case msgRedirect:
		var re *Redirect
		if re, err = decodeRedirect(f.Payload); err == nil {
			return re
		}
	default:
		err = fmt.Errorf("core: unexpected frame 0x%04x", f.Type)
	}
	c.poisoned = true
	return err
}

// unanswered reports whether err poisoned the client before any answer
// to its last request arrived, and not by a timeout. Then the server
// cannot have processed the request, so sending it again on a fresh
// connection is safe. Once an answer arrived, or a wait timed out, the
// request may have been applied (a lease created, a license seat taken)
// and re-sending it would apply it twice.
func (c *LeaseClient) unanswered(err error) bool {
	var nerr net.Error
	return c.poisoned && !c.answered && !(errors.As(err, &nerr) && nerr.Timeout())
}

// Request runs one REQUEST→OFFER exchange: a bootstrap when
// req.LeaseID is zero, a renewal otherwise (Table 3 / Table 4 flows).
// The returned Offer's HasDriver reports whether the server staged an
// upgrade transfer for the lease; the caller may FetchFile it or let a
// later checksum-acking renewal drop it. A cluster member that does not
// own the request's shard answers with a *Redirect; the caller repeats
// the request on a client connected to its Addr.
func (c *LeaseClient) Request(req Request) (Offer, error) {
	return c.offerExchange(msgRequest, req)
}

// Discover runs one DISCOVER→OFFER matchmaking probe: the server
// answers with lease terms and the matched driver's identity but
// creates no lease (paper §3.1).
func (c *LeaseClient) Discover(req Request) (Offer, error) {
	return c.offerExchange(msgDiscover, req)
}

// offerExchange runs one REQUEST or DISCOVER exchange.
func (c *LeaseClient) offerExchange(typ uint16, req Request) (Offer, error) {
	f, err := c.exchange(typ, req.encode())
	if err != nil {
		return Offer{}, err
	}
	if f.Type != msgOffer {
		return Offer{}, c.answerError(f)
	}
	o, err := decodeOffer(f.Payload)
	if err != nil {
		c.poisoned = true
		return Offer{}, err
	}
	return o, nil
}

// FetchFile downloads the driver blob staged for leaseID and returns
// its size, discarding the content (a load harness measures transfer
// cost; it does not run drivers). The checksum of what would have been
// installed is already in the Offer that staged the transfer.
func (c *LeaseClient) FetchFile(leaseID uint64) (int, error) {
	_, n, err := c.fetchFile(leaseID, false, 0)
	return n, err
}

// fetchFile sends FILE_REQUEST for leaseID and reads the FILE_DATA
// stream to its last chunk. The chunks must arrive back to back from
// offset 0 and add up to the total they announce; a stream that breaks
// either rule poisons the client. Without keep the content is only
// counted. With keep it is returned: a transfer of one frame returns
// that chunk's data, a view of its freshly read payload, so the image
// is never copied; longer ones are collected into one buffer of size
// bytes. It returns the content and the byte count.
func (c *LeaseClient) fetchFile(leaseID uint64, keep bool, size int) ([]byte, int, error) {
	var blob []byte
	if err := c.send(msgFileRequest, fileRequest{LeaseID: leaseID}.encode()); err != nil {
		return blob, 0, err
	}
	n := 0
	for {
		f, err := c.recv()
		if err != nil {
			return blob, n, fmt.Errorf("core: transfer: %w", err)
		}
		if f.Type != msgFileData {
			return blob, n, c.answerError(f)
		}
		chunk, err := decodeFileChunk(f.Payload)
		switch {
		case err != nil: // undecodable chunk
		case int(chunk.Offset) != n:
			err = fmt.Errorf("core: transfer gap: chunk at offset %d, want %d", chunk.Offset, n)
		case chunk.Last && n+len(chunk.Data) != int(chunk.Total):
			err = fmt.Errorf("core: transfer size mismatch: got %d, announced %d", n+len(chunk.Data), chunk.Total)
		}
		if err != nil {
			c.poisoned = true
			return blob, n, err
		}
		switch {
		case !keep:
		case n == 0 && chunk.Last:
			blob = chunk.Data
		case n == 0:
			blob = append(make([]byte, 0, size), chunk.Data...)
		default:
			blob = append(blob, chunk.Data...)
		}
		n += len(chunk.Data)
		if chunk.Last {
			return blob, n, nil
		}
	}
}

// Release gives a lease back (msgRelease, license mode §5.4.2).
func (c *LeaseClient) Release(leaseID uint64) error {
	f, err := c.exchange(msgRelease, releaseMsg{LeaseID: leaseID}.encode())
	if err != nil {
		return err
	}
	if f.Type != msgReleaseOK {
		return c.answerError(f)
	}
	return nil
}
