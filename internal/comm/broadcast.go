package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// BuildFlood compiles the paper's flooding broadcast (§4.2) on a lane from
// path index root, on the lane's Base color: the root streams its window;
// every router duplicates the stream on away from the root and up its own
// ramp (hardware multicast at no cost), so the whole broadcast costs the
// same as sending a single message (Lemma 4.1: T = B + P + 2T_R) over the
// longer side. Root 0 is the paper's broadcast; the middle root floods from
// the middle, both ways.
//
// Ops are appended to whatever program the PEs already have, which is how
// AllReduce composes Reduce-then-Broadcast.
func BuildFlood(spec *fabric.Spec, lane Lane, root int) error {
	path, color := lane.Path, lane.Base
	if err := lane.validate(1); err != nil {
		return err
	}
	p := len(path)
	if root < 0 || root >= p {
		return fmt.Errorf("comm: flood root %d outside a path of %d PEs", root, p)
	}
	if p == 1 {
		return nil // nothing to broadcast to
	}
	for v := 0; v < p; v++ {
		pe := spec.PE(path[v])
		op := fabric.Op{Kind: fabric.OpRecvStore, Color: color, Off: lane.Off, N: lane.N}
		cfg := fabric.RouterConfig{Accept: mesh.Ramp, Forward: mesh.Dirs(mesh.Ramp)}
		switch {
		case v == root:
			op.Kind, cfg.Forward = fabric.OpSend, 0
		case v > root:
			cfg.Accept = path.TowardStart(v)
		default:
			cfg.Accept = path.TowardEnd(v)
		}
		if v >= root && v < p-1 {
			cfg.Forward = cfg.Forward.Set(path.TowardEnd(v))
		}
		if v <= root && v > 0 {
			cfg.Forward = cfg.Forward.Set(path.TowardStart(v))
		}
		pe.Ops = append(pe.Ops, op)
		pe.AddConfig(color, cfg)
	}
	return nil
}

// BuildBroadcast2D compiles the 2D flooding broadcast of §7.1 from root:
// the root streams both ways along its row while every router of that row
// multicasts the stream up and down its column, reaching all width×height
// PEs with depth 1 and distance the Manhattan distance to the farthest corner
// (Lemma 7.1 from root (0,0), the paper's flood). The centre root floods a
// grid from its centre.
func BuildBroadcast2D(spec *fabric.Spec, width, height int, root mesh.Coord, b int, color mesh.Color) error {
	if b <= 0 {
		return fmt.Errorf("comm: vector length %d", b)
	}
	if width < 1 || height < 1 {
		return fmt.Errorf("comm: broadcast2d on %dx%d grid", width, height)
	}
	if root.X < 0 || root.X >= width || root.Y < 0 || root.Y >= height {
		return fmt.Errorf("comm: broadcast2d root %v outside %dx%d grid", root, width, height)
	}
	if width*height == 1 {
		return nil
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			pe := spec.PE(mesh.Coord{X: x, Y: y})
			op := fabric.Op{Kind: fabric.OpRecvStore, Color: color, N: b}
			fwd := mesh.Dirs(mesh.Ramp)
			var accept mesh.Direction
			switch {
			case x == root.X && y == root.Y:
				op.Kind, accept, fwd = fabric.OpSend, mesh.Ramp, 0
			case y == root.Y && x > root.X:
				accept = mesh.West
			case y == root.Y:
				accept = mesh.East
			case y > root.Y:
				accept = mesh.North
			default:
				accept = mesh.South
			}
			if y == root.Y { // the root's row: on along the row, and into every column
				if x >= root.X && x < width-1 {
					fwd = fwd.Set(mesh.East)
				}
				if x <= root.X && x > 0 {
					fwd = fwd.Set(mesh.West)
				}
			}
			if y >= root.Y && y < height-1 {
				fwd = fwd.Set(mesh.South)
			}
			if y <= root.Y && y > 0 {
				fwd = fwd.Set(mesh.North)
			}
			pe.Ops = append(pe.Ops, op)
			pe.AddConfig(color, fabric.RouterConfig{Accept: accept, Forward: fwd})
		}
	}
	return nil
}
