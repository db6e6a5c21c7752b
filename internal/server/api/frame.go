package api

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"strconv"
	"strings"
)

// FrameContentType is the media type of the column frame, the binary
// encoding of a QueryResponse. A /v1/query request whose Accept header
// names it is answered with a frame; any other request gets row JSON.
//
// A frame is, in order:
//
//   - the magic "WDC1";
//   - a uvarint length, then that many bytes of JSON header:
//     {"columns":[...],"rows":n,"stats":{...},"trace":"..."};
//   - each column in order: one flag byte (1 if the column has NULLs, else
//     0); if the flag is 1, an LSB-first null bitmap of ceil(n/8) bytes
//     (bit i%8 of byte i/8 set for a NULL row i, padding bits zero); then n
//     cells, each a uvarint length followed by the cell's text.
//
// Cell text is exactly the row-JSON rendering. A NULL cell has length 0.
const FrameContentType = "application/vnd.windowd.columns"

// frameMagic opens every column frame.
const frameMagic = "WDC1"

// frameHasNulls is the column flag bit announcing a null bitmap.
const frameHasNulls = 1

// frameHeader is the JSON header of a column frame.
type frameHeader struct {
	Columns []string   `json:"columns"`
	Rows    int        `json:"rows"`
	Stats   QueryStats `json:"stats"`
	Trace   string     `json:"trace,omitempty"`
}

// AcceptsFrame reports whether an Accept header value asks for the column
// frame: one of its media ranges is FrameContentType with a non-zero q.
func AcceptsFrame(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(part)
		if err == nil && mt == FrameContentType && acceptable(params["q"]) {
			return true
		}
	}
	return false
}

// acceptable reports whether a media range's q value leaves it acceptable:
// absent, unparsable, or greater than zero (q=0, q=0.0, q=0.000 refuse).
func acceptable(q string) bool {
	v, err := strconv.ParseFloat(q, 64)
	return err != nil || v > 0
}

// FrameWriter streams one column frame through a buffered writer, so no
// encoding of the whole result is ever held in memory. Write every column
// in order with Column, then Flush.
type FrameWriter struct {
	bw      *bufio.Writer
	rows    int
	columns int // columns still to write
	cell    []byte
	err     error
}

// NewFrameWriter writes the magic and the header of a frame of rows rows
// with the named columns.
func NewFrameWriter(w io.Writer, columns []string, rows int, stats QueryStats, trace string) (*FrameWriter, error) {
	if rows < 0 || (rows > 0 && len(columns) == 0) {
		return nil, fmt.Errorf("api: frame of %d rows and %d columns", rows, len(columns))
	}
	header, err := json.Marshal(frameHeader{Columns: columns, Rows: rows, Stats: stats, Trace: trace})
	if err != nil {
		return nil, err
	}
	fw := &FrameWriter{bw: bufio.NewWriterSize(w, 64<<10), rows: rows, columns: len(columns)}
	fw.write([]byte(frameMagic))
	fw.writeUvarint(uint64(len(header)))
	fw.write(header)
	return fw, fw.err
}

func (fw *FrameWriter) write(p []byte) {
	if fw.err == nil {
		_, fw.err = fw.bw.Write(p)
	}
}

func (fw *FrameWriter) writeByte(b byte) {
	if fw.err == nil {
		fw.err = fw.bw.WriteByte(b)
	}
}

func (fw *FrameWriter) writeUvarint(v uint64) {
	if v < 0x80 {
		fw.writeByte(byte(v))
		return
	}
	var buf [binary.MaxVarintLen64]byte
	fw.write(buf[:binary.PutUvarint(buf[:], v)])
}

// Column writes the next column. null reports whether row i is NULL; nil
// means no cell of the column is. appendCell appends the text of the
// non-NULL row i to dst and returns the extended slice.
func (fw *FrameWriter) Column(null func(i int) bool, appendCell func(dst []byte, i int) []byte) error {
	if fw.columns == 0 {
		return errors.New("api: frame column beyond the header's columns")
	}
	fw.columns--
	if null == nil {
		fw.writeByte(0)
	} else {
		fw.writeByte(frameHasNulls)
		for lo := 0; lo < fw.rows; lo += 8 {
			var b byte
			for i := lo; i < lo+8 && i < fw.rows; i++ {
				if null(i) {
					b |= 1 << (i - lo)
				}
			}
			fw.writeByte(b)
		}
	}
	for i := 0; i < fw.rows && fw.err == nil; i++ {
		if null != nil && null(i) {
			fw.writeByte(0)
			continue
		}
		fw.cell = appendCell(fw.cell[:0], i)
		fw.writeUvarint(uint64(len(fw.cell)))
		fw.write(fw.cell)
	}
	return fw.err
}

// Flush writes out the buffered tail of the frame. It fails if a column of
// the header was never written.
func (fw *FrameWriter) Flush() error {
	if fw.err == nil && fw.columns != 0 {
		fw.err = fmt.Errorf("api: frame missing %d columns", fw.columns)
	}
	if fw.err == nil {
		fw.err = fw.bw.Flush()
	}
	return fw.err
}

// DecodeFrame decodes a column frame in one pass. The body is converted to
// a string once and every cell is a substring of it; Rows and Nulls are
// per-row views over two backing slices, and Nulls is nil when no cell is
// NULL. A bad magic, a truncated or malformed column, trailing bytes or a
// header claiming more cells than the body could hold (every cell costs at
// least one byte) is an error, so allocation stays O(len(body)).
func DecodeFrame(body []byte) (*QueryResponse, error) {
	if len(body) < len(frameMagic) || string(body[:len(frameMagic)]) != frameMagic {
		return nil, errors.New("api: not a column frame (bad magic)")
	}
	p := len(frameMagic)
	hlen, n := binary.Uvarint(body[p:])
	if n <= 0 || hlen > uint64(len(body)-p-n) {
		return nil, errors.New("api: column frame: truncated header")
	}
	p += n
	var h frameHeader
	if err := json.Unmarshal(body[p:p+int(hlen)], &h); err != nil {
		return nil, fmt.Errorf("api: column frame header: %w", err)
	}
	p += int(hlen)
	rows, ncols := h.Rows, len(h.Columns)
	if rows < 0 || (rows > 0 && ncols == 0) || (ncols > 0 && rows > (len(body)-p)/ncols) {
		return nil, fmt.Errorf("api: column frame header claims %d rows of %d columns in a %d-byte body", rows, ncols, len(body))
	}
	s := string(body)
	cells := make([]string, rows*ncols)
	var nulls []bool
	for c := 0; c < ncols; c++ {
		if p == len(body) {
			return nil, fmt.Errorf("api: column frame: column %d missing", c)
		}
		flag := body[p]
		p++
		var bitmap []byte
		switch flag {
		case 0:
		case frameHasNulls:
			nb := (rows + 7) / 8
			if nb > len(body)-p {
				return nil, fmt.Errorf("api: column frame: column %d: truncated null bitmap", c)
			}
			bitmap = body[p : p+nb]
			p += nb
			if rows%8 != 0 && bitmap[nb-1]>>(rows%8) != 0 {
				return nil, fmt.Errorf("api: column frame: column %d: null bitmap padding set", c)
			}
			if nulls == nil {
				nulls = make([]bool, rows*ncols)
			}
		default:
			return nil, fmt.Errorf("api: column frame: column %d: bad flag %#x", c, flag)
		}
		for i := 0; i < rows; i++ {
			var l uint64
			if p < len(body) && body[p] < 0x80 {
				l, n = uint64(body[p]), 1
			} else {
				l, n = binary.Uvarint(body[p:])
			}
			if n <= 0 || l > uint64(len(body)-p-n) {
				return nil, fmt.Errorf("api: column frame: column %d row %d: truncated cell", c, i)
			}
			p += n
			if bitmap != nil && bitmap[i>>3]&(1<<(i&7)) != 0 {
				if l != 0 {
					return nil, fmt.Errorf("api: column frame: column %d row %d: NULL cell with text", c, i)
				}
				nulls[i*ncols+c] = true
				continue
			}
			cells[i*ncols+c] = s[p : p+int(l)]
			p += int(l)
		}
	}
	if p != len(body) {
		return nil, fmt.Errorf("api: column frame: %d trailing bytes", len(body)-p)
	}
	resp := &QueryResponse{Columns: h.Columns, Rows: make([][]string, rows), Stats: h.Stats, Trace: h.Trace}
	for i := range resp.Rows {
		resp.Rows[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	if nulls != nil {
		resp.Nulls = make([][]bool, rows)
		for i := range resp.Nulls {
			resp.Nulls[i] = nulls[i*ncols : (i+1)*ncols : (i+1)*ncols]
		}
	}
	return resp, nil
}
