package results

// The json.Decoder.Token implementation of ReadJSON, as it stood before the
// single-pass scanner in io.go replaced it: moved here verbatim (only the
// entry point is renamed) to be the reference the differential test and
// FuzzReadJSON hold the scanner to. It is lenient where the scanner is
// deliberately not — see strictOnly in readjson_test.go.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/zgrab"
)

// readJSONOracle deserializes a dataset written by WriteJSON, streaming tokens
// straight into columnar scans. Unknown fields are ignored and records may
// arrive unsorted (Seal at Put time sorts them).
func readJSONOracle(r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var (
		origins origin.Set
		trials  int
		scans   []*ScanResult
	)
	err := func() error {
		if err := expectDelim(dec, '{'); err != nil {
			return err
		}
		for dec.More() {
			key, err := readKey(dec)
			if err != nil {
				return err
			}
			switch key {
			case "origins":
				// Byte slice on the wire: base64 string (or null).
				var tok json.Token
				tok, err = dec.Token()
				if err != nil {
					return err
				}
				if tok == nil {
					break
				}
				str, ok := tok.(string)
				if !ok {
					return fmt.Errorf("expected base64 origins, got %v", tok)
				}
				var ids []byte
				ids, err = base64.StdEncoding.DecodeString(str)
				for _, id := range ids {
					origins = append(origins, origin.ID(id))
				}
			case "trials":
				var u uint64
				u, err = readUint(dec, 32)
				trials = int(u)
			case "scans":
				err = readArray(dec, func() error {
					s, err := readScan(dec)
					if err != nil {
						return err
					}
					scans = append(scans, s)
					return nil
				})
			default:
				err = skipValue(dec)
			}
			if err != nil {
				return err
			}
		}
		_, err := dec.Token() // closing '}'
		return err
	}()
	if err != nil {
		return nil, fmt.Errorf("results: decoding dataset: %w", err)
	}
	if trials <= 0 || trials > 64 {
		return nil, fmt.Errorf("results: implausible trial count %d", trials)
	}
	d := NewDataset(origins, trials)
	for _, s := range scans {
		if err := d.Put(s); err != nil {
			return nil, fmt.Errorf("results: decoding dataset: %w", err)
		}
	}
	return d, nil
}

// readScan consumes one scan object, appending records directly onto the
// columns of a fresh ScanResult.
func readScan(dec *json.Decoder) (*ScanResult, error) {
	if err := expectDelim(dec, '{'); err != nil {
		return nil, err
	}
	s := &ScanResult{}
	var banners []string
	for dec.More() {
		key, err := readKey(dec)
		if err != nil {
			return nil, err
		}
		switch key {
		case "origin":
			var u uint64
			u, err = readUint(dec, 8)
			s.Origin = origin.ID(u)
		case "proto":
			var u uint64
			u, err = readUint(dec, 8)
			s.Proto = proto.Protocol(u)
		case "trial":
			var u uint64
			u, err = readUint(dec, 32)
			s.Trial = int(u)
		case "targets":
			s.Targets, err = readUint(dec, 64)
		case "probes":
			s.ProbesSent, err = readUint(dec, 64)
		case "synacks":
			s.SynAcks, err = readUint(dec, 64)
		case "rsts":
			s.Rsts, err = readUint(dec, 64)
		case "invalid":
			s.Invalid, err = readUint(dec, 64)
		case "records":
			err = readArray(dec, func() error { return s.readRecord(dec) })
		case "banners":
			err = readArray(dec, func() error {
				b, err := readString(dec)
				if err != nil {
					return err
				}
				banners = append(banners, b)
				return nil
			})
		default:
			err = skipValue(dec)
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return nil, err
	}
	for i := range s.banner {
		if i < len(banners) {
			s.banner[i] = s.intern(banners[i])
		}
	}
	return s, nil
}

// readRecord consumes one [addr, probeMask, flags, fail, attempts, tNanos]
// tuple into the scan's columns. Like the former fixed-array decode, short
// tuples zero-fill and extra elements are discarded.
func (s *ScanResult) readRecord(dec *json.Decoder) error {
	if err := expectDelim(dec, '['); err != nil {
		return err
	}
	var addr ip.Addr
	var rec [6]uint64
	n := 0
	for dec.More() {
		if n == 0 {
			// The address element is a bare uint32 for IPv4 (historical
			// encoding) or a canonical-text JSON string for IPv6.
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			switch v := tok.(type) {
			case json.Number:
				u, err := strconv.ParseUint(v.String(), 10, 32)
				if err != nil {
					return fmt.Errorf("bad address %q: %w", v, err)
				}
				addr = ip.AddrFrom4(uint32(u))
			case string:
				a, err := ip.ParseAddr(v)
				if err != nil {
					return err
				}
				addr = a
			default:
				return fmt.Errorf("expected address, got %v", tok)
			}
			n++
			continue
		}
		u, err := readUint(dec, 64)
		if err != nil {
			return err
		}
		if n < len(rec) {
			rec[n] = u
		}
		n++
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return err
	}
	s.addrs.append(addr)
	s.rows = append(s.rows, row{
		t:         time.Duration(rec[5]),
		attempts:  int32(rec[4]),
		probeMask: uint8(rec[1]),
		flags:     uint8(rec[2]) & (flagRST | flagL7),
		fail:      zgrab.FailMode(rec[3]),
	})
	s.banner = append(s.banner, 0)
	return nil
}

// Token-stream helpers.

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, got %v", want, tok)
	}
	return nil
}

func readKey(dec *json.Decoder) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", err
	}
	key, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("expected object key, got %v", tok)
	}
	return key, nil
}

func readUint(dec *json.Decoder, bits int) (uint64, error) {
	tok, err := dec.Token()
	if err != nil {
		return 0, err
	}
	num, ok := tok.(json.Number)
	if !ok {
		return 0, fmt.Errorf("expected number, got %v", tok)
	}
	u, err := strconv.ParseUint(num.String(), 10, bits)
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %w", num, err)
	}
	return u, nil
}

func readString(dec *json.Decoder) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", err
	}
	str, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("expected string, got %v", tok)
	}
	return str, nil
}

// readArray consumes "null" or an array, calling elem before each element.
func readArray(dec *json.Decoder, elem func() error) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		return nil // JSON null: empty
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("expected array, got %v", tok)
	}
	for dec.More() {
		if err := elem(); err != nil {
			return err
		}
	}
	_, err = dec.Token() // closing ']'
	return err
}

// skipValue discards the next JSON value (unknown fields).
func skipValue(dec *json.Decoder) error {
	var raw json.RawMessage
	return dec.Decode(&raw)
}
