//! Benchmark inputs: synthetic scenes and the model parameters that go with
//! them. The seed reaches the program only through what is generated here.

use pmcmc_core::math::TruncatedNormal;
use pmcmc_core::{ModelParams, Xoshiro256};
use pmcmc_imaging::synth::{generate, SceneSpec};
use pmcmc_imaging::{Circle, GrayImage};

/// The two image shapes the workloads are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneKind {
    /// The paper's §VII image: 1024×1024, 150 cells of mean radius 10.
    Dense,
    /// One image of a retrieval batch: 256×256, 12 cells.
    Small,
}

impl SceneKind {
    pub fn spec(self) -> SceneSpec {
        let paper = SceneSpec::paper_section7();
        match self {
            SceneKind::Dense => paper,
            SceneKind::Small => SceneSpec {
                width: 256,
                height: 256,
                n_circles: 12,
                ..paper
            },
        }
    }
}

/// One image with its ground truth and the parameters a job is given.
pub struct Scene {
    pub image: GrayImage,
    pub params: ModelParams,
    pub truth: Vec<Circle>,
}

/// Generates and renders one scene. The model knows the scene's true count
/// and radius range ("knowing the expected size of cells", §I) and assumes a
/// noise level of 0.15 whatever the image's own noise.
pub fn scene(kind: SceneKind, seed: u64) -> Scene {
    let spec = kind.spec();
    let mut rng = Xoshiro256::new(seed);
    let layout = generate(&spec, &mut rng);
    let image = layout.render(&mut rng);
    let mut params = ModelParams::new(
        spec.width,
        spec.height,
        layout.circles.len() as f64,
        spec.radius_mean,
    );
    params.radius_prior = TruncatedNormal::new(
        spec.radius_mean,
        spec.radius_sd.max(0.5),
        spec.radius_min,
        spec.radius_max,
    );
    params.noise_sd = 0.15;
    Scene {
        image,
        params,
        truth: layout.circles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenes_repeat_for_a_seed_and_differ_between_seeds() {
        let a = scene(SceneKind::Small, 5);
        let b = scene(SceneKind::Small, 5);
        let c = scene(SceneKind::Small, 6);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.image, b.image);
        assert_ne!(a.truth, c.truth);
        assert_eq!((a.image.width(), a.image.height()), (256, 256));
        assert_eq!(a.truth.len(), 12);
        assert_eq!(a.params.width, 256);
    }
}
