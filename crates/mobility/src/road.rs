//! Road topology: segments, lanes and the road network graph.
//!
//! The road model is deliberately lightweight: mobility-based and
//! geographic-location-based routing only need to know where roads are, which
//! direction traffic flows on them and how they connect at intersections.

use crate::geometry::{Heading, Position, Vec2};

/// Direction of traffic flow on a directed road segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadDirection {
    /// Traffic travels from the segment start towards its end.
    Forward,
    /// Traffic travels from the segment end towards its start.
    Backward,
}

impl RoadDirection {
    /// The opposite flow direction.
    #[must_use]
    pub fn reversed(self) -> Self {
        match self {
            RoadDirection::Forward => RoadDirection::Backward,
            RoadDirection::Backward => RoadDirection::Forward,
        }
    }
}

/// One lane of a road segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lane {
    /// Index of the lane within its segment (0 = rightmost).
    pub index: usize,
    /// Flow direction relative to the segment axis.
    pub direction: RoadDirection,
    /// Lateral offset from the segment centreline, in metres.
    pub lateral_offset: f64,
    /// Speed limit on this lane, in m/s.
    pub speed_limit: f64,
}

/// A straight road segment between two endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadSegment {
    /// Identifier of the segment within its network.
    pub id: usize,
    /// Start point.
    pub start: Position,
    /// End point.
    pub end: Position,
    /// The lanes carried by this segment.
    pub lanes: Vec<Lane>,
}

impl RoadSegment {
    /// Creates a segment with `lanes_per_direction` lanes each way and a
    /// uniform speed limit.
    #[must_use]
    pub fn new(
        id: usize,
        start: Position,
        end: Position,
        lanes_per_direction: usize,
        lane_width: f64,
        speed_limit: f64,
    ) -> Self {
        let mut lanes = Vec::new();
        for i in 0..lanes_per_direction {
            lanes.push(Lane {
                index: i,
                direction: RoadDirection::Forward,
                lateral_offset: -(i as f64 + 0.5) * lane_width,
                speed_limit,
            });
        }
        for i in 0..lanes_per_direction {
            lanes.push(Lane {
                index: lanes_per_direction + i,
                direction: RoadDirection::Backward,
                lateral_offset: (i as f64 + 0.5) * lane_width,
                speed_limit,
            });
        }
        RoadSegment {
            id,
            start,
            end,
            lanes,
        }
    }

    /// Length of the segment in metres.
    #[must_use]
    pub fn length(&self) -> f64 {
        (self.end - self.start).norm()
    }

    /// Unit vector along the segment axis (start → end).
    #[must_use]
    pub fn axis(&self) -> Vec2 {
        (self.end - self.start).normalized()
    }

    /// Heading of traffic flowing in `direction` on this segment.
    #[must_use]
    pub fn heading(&self, direction: RoadDirection) -> Heading {
        match direction {
            RoadDirection::Forward => Heading::from_vec(self.axis()),
            RoadDirection::Backward => Heading::from_vec(-self.axis()),
        }
    }

    /// Converts a longitudinal offset (metres from start) and a lane into a
    /// world-space position.
    #[must_use]
    pub fn position_at(&self, longitudinal: f64, lane: &Lane) -> Position {
        let axis = self.axis();
        let lateral = axis.perpendicular() * lane.lateral_offset;
        self.start + axis * longitudinal + lateral
    }

    /// Projects a world-space position onto the segment axis, returning the
    /// longitudinal offset clamped to `[0, length]`.
    #[must_use]
    pub fn project(&self, position: Position) -> f64 {
        let rel = position - self.start;
        rel.scalar_projection_onto(self.end - self.start)
            .clamp(0.0, self.length())
    }

    /// Number of lanes in each direction (assumes the symmetric constructor).
    #[must_use]
    pub fn lanes_per_direction(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.direction == RoadDirection::Forward)
            .count()
    }
}

/// A graph of road segments joined at shared endpoints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoadNetwork {
    segments: Vec<RoadSegment>,
}

impl RoadNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a segment and returns its id.
    pub fn add_segment(&mut self, mut segment: RoadSegment) -> usize {
        let id = self.segments.len();
        segment.id = id;
        self.segments.push(segment);
        id
    }

    /// All segments.
    #[must_use]
    pub fn segments(&self) -> &[RoadSegment] {
        &self.segments
    }

    /// Looks up a segment by id.
    #[must_use]
    pub fn segment(&self, id: usize) -> Option<&RoadSegment> {
        self.segments.get(id)
    }

    /// Number of segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the network has no segments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total road length in metres.
    #[must_use]
    pub fn total_length(&self) -> f64 {
        self.segments.iter().map(RoadSegment::length).sum()
    }

    /// Segments whose start or end coincides (within `tol` metres) with `point`.
    #[must_use]
    pub fn segments_at(&self, point: Position, tol: f64) -> Vec<usize> {
        self.segments
            .iter()
            .filter(|s| (s.start - point).norm() <= tol || (s.end - point).norm() <= tol)
            .map(|s| s.id)
            .collect()
    }

    /// The segment closest to `position` (by projection distance), if any.
    #[must_use]
    pub fn nearest_segment(&self, position: Position) -> Option<usize> {
        self.segments
            .iter()
            .map(|s| {
                let along = s.project(position);
                let point = s.start + s.axis() * along;
                (s.id, (point - position).norm())
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)
    }

    /// Builds a Manhattan grid of `nx × ny` intersections spaced `block` metres
    /// apart, with `lanes_per_direction` lanes and a uniform speed limit.
    #[must_use]
    pub fn manhattan_grid(
        nx: usize,
        ny: usize,
        block: f64,
        lanes_per_direction: usize,
        lane_width: f64,
        speed_limit: f64,
    ) -> Self {
        let mut net = RoadNetwork::new();
        // Horizontal streets.
        for j in 0..ny {
            for i in 0..nx.saturating_sub(1) {
                let start = Vec2::new(i as f64 * block, j as f64 * block);
                let end = Vec2::new((i + 1) as f64 * block, j as f64 * block);
                net.add_segment(RoadSegment::new(
                    0,
                    start,
                    end,
                    lanes_per_direction,
                    lane_width,
                    speed_limit,
                ));
            }
        }
        // Vertical streets.
        for i in 0..nx {
            for j in 0..ny.saturating_sub(1) {
                let start = Vec2::new(i as f64 * block, j as f64 * block);
                let end = Vec2::new(i as f64 * block, (j + 1) as f64 * block);
                net.add_segment(RoadSegment::new(
                    0,
                    start,
                    end,
                    lanes_per_direction,
                    lane_width,
                    speed_limit,
                ));
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> RoadSegment {
        RoadSegment::new(0, Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0), 2, 4.0, 30.0)
    }

    #[test]
    fn segment_geometry() {
        let s = seg();
        assert_eq!(s.length(), 100.0);
        assert_eq!(s.axis(), Vec2::new(1.0, 0.0));
        assert_eq!(s.lanes.len(), 4);
        assert_eq!(s.lanes_per_direction(), 2);
        assert_eq!(s.heading(RoadDirection::Forward), Heading::EAST);
        assert_eq!(s.heading(RoadDirection::Backward), Heading::WEST);
    }

    #[test]
    fn lane_positions_are_offset() {
        let s = seg();
        let fwd_lane = s.lanes[0];
        let bwd_lane = s.lanes[2];
        let p_fwd = s.position_at(50.0, &fwd_lane);
        let p_bwd = s.position_at(50.0, &bwd_lane);
        assert_eq!(p_fwd.x, 50.0);
        assert_eq!(p_bwd.x, 50.0);
        assert!(p_fwd.y < 0.0, "forward lanes on the right of the axis");
        assert!(p_bwd.y > 0.0, "backward lanes on the left of the axis");
    }

    #[test]
    fn projection_clamps() {
        let s = seg();
        assert_eq!(s.project(Vec2::new(-10.0, 3.0)), 0.0);
        assert_eq!(s.project(Vec2::new(40.0, 3.0)), 40.0);
        assert_eq!(s.project(Vec2::new(400.0, 3.0)), 100.0);
    }

    #[test]
    fn direction_reversal() {
        assert_eq!(RoadDirection::Forward.reversed(), RoadDirection::Backward);
        assert_eq!(RoadDirection::Backward.reversed(), RoadDirection::Forward);
    }

    #[test]
    fn network_queries() {
        let mut net = RoadNetwork::new();
        assert!(net.is_empty());
        let id = net.add_segment(seg());
        assert_eq!(net.len(), 1);
        assert_eq!(net.segment(id).unwrap().length(), 100.0);
        assert_eq!(net.total_length(), 100.0);
        assert_eq!(net.nearest_segment(Vec2::new(50.0, 10.0)), Some(id));
        assert_eq!(net.segments_at(Vec2::new(0.0, 0.0), 1.0), vec![id]);
        assert!(net.segments_at(Vec2::new(50.0, 50.0), 1.0).is_empty());
    }

    #[test]
    fn manhattan_grid_counts() {
        let net = RoadNetwork::manhattan_grid(3, 3, 200.0, 1, 3.5, 14.0);
        // Horizontal: 3 rows × 2 segments; vertical: 3 columns × 2 segments.
        assert_eq!(net.len(), 12);
        assert_eq!(net.total_length(), 12.0 * 200.0);
        // Every segment id matches its index.
        for (i, s) in net.segments().iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }
}
