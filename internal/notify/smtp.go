package notify

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// SMTPTransport delivers notifications as mail messages over a minimal
// RFC 5321 subset (HELO, MAIL FROM, RCPT TO, DATA, QUIT). Addresses have
// the form "mailbox@host:port"; the host:port part is dialed, the
// mailbox is the RCPT. Each Send performs one full SMTP session — the
// protocol makes this transport the slow, reliable end of the spectrum
// in BenchmarkNotify.
type SMTPTransport struct {
	From        string // envelope sender, default "stopss@localhost"
	dialTimeout time.Duration
}

// NewSMTPTransport returns an SMTP transport.
func NewSMTPTransport(from string) *SMTPTransport {
	if from == "" {
		from = "stopss@localhost"
	}
	return &SMTPTransport{From: from, dialTimeout: 2 * time.Second}
}

// Name implements Transport.
func (t *SMTPTransport) Name() string { return "smtp" }

// Send implements Transport.
func (t *SMTPTransport) Send(addr string, n Notification) error {
	mailbox, hostport, ok := splitMailAddr(addr)
	if !ok {
		return fmt.Errorf("notify/smtp: address %q must be mailbox@host:port", addr)
	}
	body, err := n.Encode()
	if err != nil {
		return err
	}

	conn, err := net.DialTimeout("tcp", hostport, t.dialTimeout)
	if err != nil {
		return fmt.Errorf("notify/smtp: dial %s: %w", hostport, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)

	step := func(cmd string, wantCode string) error {
		if cmd != "" {
			if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
				return fmt.Errorf("notify/smtp: send %q: %w", cmd, err)
			}
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("notify/smtp: read reply: %w", err)
		}
		if !strings.HasPrefix(line, wantCode) {
			return fmt.Errorf("notify/smtp: unexpected reply %q (want %s)", strings.TrimSpace(line), wantCode)
		}
		return nil
	}

	if err := step("", "220"); err != nil { // greeting
		return err
	}
	if err := step("HELO stopss", "250"); err != nil {
		return err
	}
	if err := step(fmt.Sprintf("MAIL FROM:<%s>", t.From), "250"); err != nil {
		return err
	}
	if err := step(fmt.Sprintf("RCPT TO:<%s>", mailbox), "250"); err != nil {
		return err
	}
	if err := step("DATA", "354"); err != nil {
		return err
	}
	msg := fmt.Sprintf("Subject: S-ToPSS notification %d\r\n\r\n%s\r\n.", n.Seq, dotStuff(string(body)))
	if err := step(msg, "250"); err != nil {
		return err
	}
	return step("QUIT", "221")
}

// Close implements Transport (sessions are per-send; nothing to close).
func (t *SMTPTransport) Close() error { return nil }

func splitMailAddr(addr string) (mailbox, hostport string, ok bool) {
	i := strings.LastIndex(addr, "@")
	if i <= 0 || i == len(addr)-1 {
		return "", "", false
	}
	return addr[:i], addr[i+1:], true
}

// dotStuff escapes leading dots per RFC 5321 §4.5.2.
func dotStuff(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, ".") {
			lines[i] = "." + l
		}
	}
	return strings.Join(lines, "\n")
}

// Mail is a message received by the SMTPSink.
type Mail struct {
	From string
	To   string
	Body string
}

// SMTPSink is a minimal SMTP server accepting the subset the transport
// speaks. Received messages are passed to the handler; the notification
// payload is the body after the blank line.
type SMTPSink struct {
	ln net.Listener
	wg sync.WaitGroup
}

// NewSMTPSink listens on addr and invokes handle per received mail.
func NewSMTPSink(addr string, handle func(Mail)) (*SMTPSink, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("notify/smtp: listen %s: %w", addr, err)
	}
	s := &SMTPSink{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.session(conn, handle)
			}()
		}
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *SMTPSink) Addr() string { return s.ln.Addr().String() }

func (s *SMTPSink) session(conn net.Conn, handle func(Mail)) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	say := func(code, text string) bool {
		_, err := fmt.Fprintf(conn, "%s %s\r\n", code, text)
		return err == nil
	}
	if !say("220", "stopss-sink ready") {
		return
	}
	var mail Mail
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		cmd := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(cmd, "HELO"), strings.HasPrefix(cmd, "EHLO"):
			say("250", "hello")
		case strings.HasPrefix(cmd, "MAIL FROM:"):
			mail.From = strings.Trim(line[len("MAIL FROM:"):], "<> ")
			say("250", "ok")
		case strings.HasPrefix(cmd, "RCPT TO:"):
			mail.To = strings.Trim(line[len("RCPT TO:"):], "<> ")
			say("250", "ok")
		case cmd == "DATA":
			if !say("354", "end with .") {
				return
			}
			var body []string
			for {
				l, err := r.ReadString('\n')
				if err != nil {
					return
				}
				l = strings.TrimRight(l, "\r\n")
				if l == "." {
					break
				}
				l = strings.TrimPrefix(l, ".") // un-stuff
				body = append(body, l)
			}
			// Strip headers: body is everything after the first blank line.
			text := strings.Join(body, "\n")
			if i := strings.Index(text, "\n\n"); i >= 0 {
				text = text[i+2:]
			}
			mail.Body = text
			handle(mail)
			say("250", "queued")
			mail = Mail{}
		case cmd == "QUIT":
			say("221", "bye")
			return
		case cmd == "RSET":
			mail = Mail{}
			say("250", "ok")
		case cmd == "NOOP":
			say("250", "ok")
		default:
			if !say("502", "command not implemented") {
				return
			}
		}
	}
}

// Close stops the sink.
func (s *SMTPSink) Close() error {
	err := s.ln.Close()
	return err
}
