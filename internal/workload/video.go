package workload

import "repro/internal/video"

// Camera generates deterministic synthetic camera frames: a smooth
// gradient with a bright moving block, enough structure to exercise
// the DPCM codec, sub-sampling and tear detection.
type Camera struct {
	w, h  int
	frame int
}

// NewCamera returns a camera of the given dimensions.
func NewCamera(w, h int) *Camera { return &Camera{w: w, h: h} }

// NextFrame produces the next frame.
func (c *Camera) NextFrame() *video.Frame {
	f := new(video.Frame)
	c.NextFrameInto(f)
	return f
}

// NextFrameInto renders the next frame into f, reusing its pixel
// storage; every pixel is overwritten.
func (c *Camera) NextFrameInto(f *video.Frame) {
	n := c.frame
	c.frame++
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
