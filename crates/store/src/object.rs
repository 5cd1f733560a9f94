//! Object and bucket metadata.

use rustwren_sim::SimInstant;

/// Metadata describing one stored object, as returned by `HEAD` and `LIST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object key within its bucket.
    pub key: String,
    /// Physical size in bytes of the stored payload.
    pub size: u64,
    /// Logical (simulated) size used for partitioning decisions.
    ///
    /// The reproduction stores scaled-down payloads but advertises the
    /// paper's full dataset sizes here, so the partitioner produces the same
    /// chunk counts as the original 1.9 GB experiment. Equal to [`size`]
    /// unless explicitly overridden at PUT time.
    ///
    /// [`size`]: ObjectMeta::size
    pub logical_size: u64,
    /// Content hash of the object's bytes and key: it changes whenever the
    /// content changes, and an overwrite with identical bytes keeps it.
    /// The store computes it when first asked, not at PUT.
    pub etag: u64,
    /// Virtual time of the last write.
    pub last_modified: SimInstant,
}

impl ObjectMeta {
    /// Ratio of logical to physical bytes (1.0 for unscaled objects).
    pub fn scale(&self) -> f64 {
        if self.size == 0 {
            1.0
        } else {
            self.logical_size as f64 / self.size as f64
        }
    }

    /// Maps a logical byte offset onto the physical payload, clamped to the
    /// object's physical size.
    pub fn logical_to_physical(&self, logical_offset: u64) -> u64 {
        if self.logical_size == 0 {
            return 0;
        }
        let frac = logical_offset as f64 / self.logical_size as f64;
        ((frac * self.size as f64).round() as u64).min(self.size)
    }
}

/// Metadata describing one bucket, as returned by `HEAD` on a bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketMeta {
    /// Bucket name.
    pub name: String,
    /// Number of objects currently stored.
    pub object_count: u64,
    /// Sum of physical object sizes in bytes.
    pub total_bytes: u64,
    /// Sum of logical object sizes in bytes.
    pub total_logical_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(size: u64, logical: u64) -> ObjectMeta {
        ObjectMeta {
            key: "k".into(),
            size,
            logical_size: logical,
            etag: 0,
            last_modified: SimInstant::ZERO,
        }
    }

    #[test]
    fn unscaled_objects_have_scale_one() {
        assert_eq!(meta(100, 100).scale(), 1.0);
    }

    #[test]
    fn logical_to_physical_maps_proportionally() {
        let m = meta(100, 1000);
        assert_eq!(m.logical_to_physical(0), 0);
        assert_eq!(m.logical_to_physical(500), 50);
        assert_eq!(m.logical_to_physical(1000), 100);
    }

    #[test]
    fn logical_to_physical_clamps_to_size() {
        let m = meta(100, 1000);
        assert_eq!(m.logical_to_physical(5000), 100);
    }

    #[test]
    fn empty_object_maps_to_zero() {
        let m = meta(0, 0);
        assert_eq!(m.logical_to_physical(10), 0);
        assert_eq!(m.scale(), 1.0);
    }
}
