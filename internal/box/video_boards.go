package box

import (
	"encoding/binary"
	"time"

	"repro/internal/occam"
	"repro/internal/segment"
	"repro/internal/video"
)

// The capture board (§3.6): the camera writes the framestore
// continuously; for each open stream, rectangles are read at the
// stream's fractional frame rate, timed against the camera scan so a
// block is never read while being written, compressed line by line
// and despatched as one or more Pandora segments per frame, "each of
// which is despatched as soon as the data is ready, reducing
// latencies and buffering requirements".
//
// The mixer (display) board: video data is assembled per frame; "We
// do not display any part of a video frame until all of the segments
// have been received", and the copy to the display buffer is timed
// against the display scan.

func (b *Box) startCapture() {
	b.rt.Go(b.cfg.Name+".capture", b.captureNode, occam.High, b.runCapture)
}

func (b *Box) startDisplay() {
	b.rt.Go(b.cfg.Name+".display", b.mixerNode, occam.High, b.runDisplay)
}

// packLines serialises compressed lines (2-byte length prefix each)
// into a video segment's Data, appending to dst (pass a reused
// scratch slice on hot paths).
func packLines(dst []byte, lines [][]byte) []byte {
	for _, l := range lines {
		var hdr [2]byte
		binary.BigEndian.PutUint16(hdr[:], uint16(len(l)))
		dst = append(dst, hdr[:]...)
		dst = append(dst, l...)
	}
	return dst
}

// unpackLines reverses packLines, appending the line views (aliasing
// data) to dst.
func unpackLines(dst [][]byte, data []byte) ([][]byte, bool) {
	for len(data) > 0 {
		if len(data) < 2 {
			return dst, false
		}
		n := int(binary.BigEndian.Uint16(data))
		data = data[2:]
		if len(data) < n {
			return dst, false
		}
		dst = append(dst, data[:n])
		data = data[n:]
	}
	return dst, true
}

// runCapture drives the camera at 25 Hz and produces segments for
// every open stream.
func (b *Box) runCapture(p *occam.Proc) {
	scan := video.Scan{Lines: b.cfg.CameraH, Period: video.FramePeriod}
	streams := make(map[uint32]*CameraStream)
	frameSeq := make(map[uint32]uint32)
	segSeq := make(map[uint32]uint32)
	lp := video.LineParams{Shift: 1}
	// Per-board scratch, reused every band: the framestore read
	// rectangle, the line codec, the compressed-line list, and the
	// packed segment data (copied on into the wire by Encode).
	var (
		img    video.Frame
		rect   video.Frame
		codec  video.Codec
		lines  [][]byte
		packed []byte
	)

	for frame := 0; ; frame++ {
		p.SleepUntil(occam.Time(int64(frame) * int64(video.FramePeriod)))
		// Commands between frames (principles 4 and 6).
		for {
			var cmd captureCmd
			if p.Alt(occam.Recv(b.captureCmds, &cmd), occam.Skip()) == 1 {
				break
			}
			switch {
			case cmd.Start != nil:
				cs := *cmd.Start
				if cs.SegsPerFrame <= 0 {
					cs.SegsPerFrame = 2
				}
				streams[cs.Stream] = &cs
			case cmd.HasStop:
				delete(streams, cmd.Stop)
			}
		}
		// The camera updates the framestore.
		b.camera.NextFrameInto(&img)
		b.framestore.WriteLines(&img, 0, b.cfg.CameraH)

		for _, id := range orderedStreamIDs(streams) {
			cs := streams[id]
			if !cs.Rate.Take(frame) {
				continue
			}
			// Split the rectangle into SegsPerFrame row bands, each a
			// Pandora segment despatched as soon as it is compressed.
			// Each band's framestore read is timed against the camera
			// scan separately — this is why the hardware read blocks,
			// not whole frames (§3.6).
			rows := cs.Rect.H / cs.SegsPerFrame
			if rows == 0 {
				rows = cs.Rect.H
			}
			nsegs := (cs.Rect.H + rows - 1) / rows
			for s := 0; s < nsegs; s++ {
				y0 := s * rows
				y1 := y0 + rows
				if y1 > cs.Rect.H {
					y1 = cs.Rect.H
				}
				band := video.Rect{X: cs.Rect.X, Y: cs.Rect.Y + y0, W: cs.Rect.W, H: y1 - y0}
				readTime := time.Duration(band.W*band.H) * 20 * time.Nanosecond
				p.SleepUntil(scan.SafeReadStart(p.Now(), band, readTime))
				b.framestore.ReadRectInto(&rect, band)
				lines = lines[:0]
				codec.Reset()
				for y := 0; y < y1-y0; y++ {
					lines = append(lines, codec.CompressLine(rect.Row(y), lp))
					p.Consume(captureSliceCost / video.DefaultSliceLines)
				}
				packed = packLines(packed[:0], lines)
				seg := segment.NewVideo(
					segSeq[id], p.Now(),
					frameSeq[id], uint32(nsegs), uint32(s),
					uint32(cs.Rect.X), uint32(cs.Rect.Y+y0),
					uint32(cs.Rect.W), uint32(y0), uint32(y1-y0),
					packed)
				seg.Compression = segment.CompressionDPCM
				seg.Args = []uint32{uint32(lp.Shift)}
				seg.Length = uint32(seg.WireSize())
				segSeq[id]++
				// Encode once at the source (§3.4); the wire moves by
				// reference from here to the display's copy-out.
				w := b.wires.Encode(seg)
				b.captureToServer.Send(p, wireMsg{Stream: id, W: w}, w.Len())
			}
			frameSeq[id]++
		}
	}
}

func orderedStreamIDs(m map[uint32]*CameraStream) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort, tiny n
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids
}

// runDisplay decompresses arriving video segments (reloading the
// interpolator's per-stream line cache on interleaving), assembles
// whole frames, and copies each completed frame to the display at a
// scan-safe moment.
func (b *Box) runDisplay(p *occam.Proc) {
	rep := newReporter(b.cfg.Name+".display", b.Reports)
	scan := video.Scan{Lines: b.cfg.CameraH, Period: video.FramePeriod}
	assemblers := make(map[uint32]*video.Assembler)
	var seg segment.Video // reused header view into each wire
	// Per-board scratch, reused every segment: the line views into the
	// wire, the codec, and the decoded image (blitted into the
	// assembler's own frame by Add).
	var (
		lines [][]byte
		codec video.Codec
		img   video.Frame
	)
	for {
		msg := b.serverToMixer.Recv(p)
		if b.boardDown(p, "display") {
			msg.W.Release()
			continue
		}
		b.displayStat.Segments++
		p.Consume(displaySegmentCost)

		// Decode the header in place; seg.Data aliases the wire until
		// the Release at the end of this iteration.
		err := msg.W.DecodeVideoInto(&seg)
		var ok bool
		lines, ok = unpackLines(lines[:0], seg.Data)
		if err != nil || !ok || len(lines) != int(seg.NumLines) {
			b.displayStat.DecodeErrs++
			rep.Report(p, "corrupt", "stream %d: corrupt segment discarded", msg.Stream)
			msg.W.Release()
			continue // "the current segment is thrown away" (§3.8)
		}
		// Decompress with the per-stream last-line continuity (§3.6).
		b.interp.Begin(msg.Stream)
		img.Reuse(int(seg.Width), int(seg.NumLines))
		bad := false
		for i, wire := range lines {
			line, err := codec.DecompressLine(wire, int(seg.Width))
			if err != nil {
				bad = true
				break
			}
			copy(img.Row(i), line)
			b.interp.Advance(msg.Stream, line)
		}
		if bad {
			b.displayStat.DecodeErrs++
			msg.W.Release()
			continue
		}

		a, ok := assemblers[msg.Stream]
		if !ok {
			a = video.NewAssembler(b.cfg.CameraW, b.cfg.CameraH)
			assemblers[msg.Stream] = a
		}
		frame := a.Add(&seg, &img)
		msg.W.Release() // img and the assembler hold their own copies
		if frame == nil {
			continue
		}
		// Whole frame ready: copy to the display buffer in two halves,
		// each at a scan-safe time ("care being taken to avoid the
		// scan of the display controller... copying frames both in
		// front of and behind the scan if necessary").
		half := b.cfg.CameraH / 2
		copyTime := time.Duration(b.cfg.CameraW*half) * 10 * time.Nanosecond
		top := video.Rect{Y: 0, H: half, W: b.cfg.CameraW}
		bottom := video.Rect{Y: half, H: b.cfg.CameraH - half, W: b.cfg.CameraW}
		p.SleepUntil(scan.SafeReadStart(p.Now(), top, copyTime))
		p.SleepUntil(scan.SafeReadStart(p.Now(), bottom, copyTime))
		b.displayStat.Frames++
		b.displayStat.FrameLat.Observe(p.Now().Sub(segment.TimestampTime(seg.Timestamp)))
	}
}
