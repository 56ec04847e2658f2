package workload

import "repro/internal/video"

// Camera generates deterministic synthetic camera frames: a smooth
// gradient with a bright moving block, enough structure to exercise
// the DPCM codec, sub-sampling and tear detection. A frame depends only
// on its index, so a capture board that skips frames nobody reads
// renders the same pixels for the ones it does.
type Camera struct {
	w, h int
}

// NewCamera returns a camera of the given dimensions.
func NewCamera(w, h int) *Camera { return &Camera{w: w, h: h} }

// FrameInto renders frame n into f, reusing its pixel storage; every
// pixel is overwritten.
func (c *Camera) FrameInto(f *video.Frame, n int) {
	f.Reuse(c.w, c.h)
	for y := 0; y < c.h; y++ {
		for x := 0; x < c.w; x++ {
			f.Set(x, y, byte((x*2+y+n*3)&0xFF))
		}
	}
	// A bright block moving one pixel per frame — motion parallel to
	// segment boundaries, the §3.6 tear-revealing case.
	bs := c.w / 8
	bx := (n * 1) % (c.w - bs)
	by := c.h / 3
	for y := by; y < by+bs && y < c.h; y++ {
		for x := bx; x < bx+bs; x++ {
			f.Set(x, y, 250)
		}
	}
}
