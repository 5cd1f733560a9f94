//! Docker-style runtime images and the shared registry.
//!
//! IBM Cloud Functions runs each function inside a Docker container built
//! from a runtime image. The paper highlights that — unlike AWS Lambda's
//! fixed Anaconda runtime — users can build *custom* runtimes (extra
//! packages, different interpreter versions), push them to Docker Hub, and
//! share them with colleagues (§3.1). [`DockerRegistry`] models that hub:
//! the platform pulls an image the first time a worker runs a function that
//! needs it, then caches it node-locally.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

/// The default Python runtime shipped with IBM Cloud Functions
/// (`python-jessie:3` in the paper).
pub const DEFAULT_RUNTIME: &str = "python-jessie:3";

/// A runtime image in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeImage {
    /// Image name, e.g. `"python-jessie:3"` or `"alice/matplotlib:1"`.
    pub name: String,
    /// Compressed image size in bytes; determines first-pull latency.
    pub size_bytes: u64,
    /// Extra packages baked into the image (informational, used by examples
    /// to assert a dependency is available).
    pub packages: Vec<String>,
}

impl RuntimeImage {
    /// Creates an image description.
    pub fn new(name: impl Into<String>, size_bytes: u64) -> RuntimeImage {
        RuntimeImage {
            name: name.into(),
            size_bytes,
            packages: Vec::new(),
        }
    }

    /// Adds a package to the image description (builder-style).
    pub fn with_package(mut self, pkg: impl Into<String>) -> RuntimeImage {
        self.packages.push(pkg.into());
        self
    }

    /// Whether the image bundles `pkg`.
    pub fn has_package(&self, pkg: &str) -> bool {
        self.packages.iter().any(|p| p == pkg)
    }
}

/// A writer held the registry lock during a
/// [`DockerRegistry::try_get`]; retry later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryBusy;

/// A shared Docker-Hub-like registry of runtime images. Cheap to clone.
///
/// A fresh registry already contains [`DEFAULT_RUNTIME`] with the common
/// scientific-Python packages, mirroring the IBM default runtime.
#[derive(Clone)]
pub struct DockerRegistry {
    images: Arc<RwLock<HashMap<String, RuntimeImage>>>,
}

impl fmt::Debug for DockerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DockerRegistry")
            .field("images", &self.images.read().len())
            .finish()
    }
}

impl Default for DockerRegistry {
    fn default() -> Self {
        DockerRegistry::new()
    }
}

impl DockerRegistry {
    /// Creates a registry preloaded with the default runtime.
    pub fn new() -> DockerRegistry {
        let reg = DockerRegistry {
            images: Arc::new(RwLock::new(HashMap::new())),
        };
        reg.push(
            RuntimeImage::new(DEFAULT_RUNTIME, 340 * 1024 * 1024)
                .with_package("numpy")
                .with_package("pandas")
                .with_package("requests"),
        );
        reg
    }

    /// Publishes (or overwrites) an image — `docker push`.
    pub fn push(&self, image: RuntimeImage) {
        self.images.write().insert(image.name.clone(), image);
    }

    /// Looks up an image by name — `docker pull` metadata check — without
    /// blocking: `Err(RegistryBusy)` when a writer holds the registry lock.
    /// Activations look images up from light tasks, which run on a
    /// borrowed stack and must never park on a contended lock.
    pub fn try_get(&self, name: &str) -> Result<Option<RuntimeImage>, RegistryBusy> {
        match self.images.try_read() {
            Some(images) => Ok(images.get(name).cloned()),
            None => Err(RegistryBusy),
        }
    }

    /// [`try_get`](DockerRegistry::try_get)'s one `try_read` for the size
    /// alone: a cold start reads it without copying the image's name and
    /// package list.
    pub(crate) fn try_size_bytes(&self, name: &str) -> Result<Option<u64>, RegistryBusy> {
        match self.images.try_read() {
            Some(images) => Ok(images.get(name).map(|i| i.size_bytes)),
            None => Err(RegistryBusy),
        }
    }

    /// Holds the registry as a `docker push` in progress does.
    #[cfg(test)]
    pub(crate) fn pushing(&self) -> impl Drop + '_ {
        self.images.write()
    }

    /// Whether an image exists.
    pub fn contains(&self, name: &str) -> bool {
        self.images.read().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runtime_is_preloaded() {
        let reg = DockerRegistry::new();
        let img = reg
            .try_get(DEFAULT_RUNTIME)
            .unwrap()
            .expect("default runtime");
        assert!(img.has_package("numpy"));
        assert!(img.size_bytes > 0);
    }

    #[test]
    fn push_and_get_custom_runtime() {
        let reg = DockerRegistry::new();
        reg.push(RuntimeImage::new("alice/matplotlib:1", 420 << 20).with_package("matplotlib"));
        let img = reg
            .try_get("alice/matplotlib:1")
            .unwrap()
            .expect("pushed image");
        assert!(img.has_package("matplotlib"));
        assert!(!img.has_package("torch"));
    }

    #[test]
    fn try_get_reports_contention_instead_of_blocking() {
        let reg = DockerRegistry::new();
        assert_eq!(reg.try_get(DEFAULT_RUNTIME).map(|i| i.is_some()), Ok(true));
        assert_eq!(reg.try_get("ghost:1"), Ok(None));
        assert_eq!(reg.try_size_bytes(DEFAULT_RUNTIME), Ok(Some(340 << 20)));
        assert_eq!(reg.try_size_bytes("ghost:1"), Ok(None));
        // With a writer parked on the lock, a light poll must get a
        // retry signal, never block.
        let writer = reg.images.write();
        assert_eq!(reg.try_get(DEFAULT_RUNTIME), Err(RegistryBusy));
        assert_eq!(reg.try_size_bytes(DEFAULT_RUNTIME), Err(RegistryBusy));
        drop(writer);
        assert!(reg.try_get(DEFAULT_RUNTIME).is_ok());
    }

    #[test]
    fn registry_is_shared_between_clones() {
        let reg = DockerRegistry::new();
        let reg2 = reg.clone();
        reg.push(RuntimeImage::new("shared:1", 1));
        assert!(reg2.contains("shared:1"));
    }

    #[test]
    fn push_overwrites() {
        let reg = DockerRegistry::new();
        reg.push(RuntimeImage::new("img:1", 10));
        reg.push(RuntimeImage::new("img:1", 20));
        assert_eq!(
            reg.try_get("img:1").unwrap().map(|i| i.size_bytes),
            Some(20)
        );
    }
}
