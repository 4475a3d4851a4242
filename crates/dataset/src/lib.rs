//! # platter-dataset
//!
//! Synthetic *IndianFood10* / *IndianFood20* datasets: the paper's class
//! vocabularies (Tables I and IV), YOLO txt annotations, a deterministic
//! dataset planner reproducing the paper's composition (11,547 images, ~7%
//! multi-dish platters averaging 2.33 dishes), 80/20 splits, and a batching
//! loader with mosaic/HSV/affine augmentation.
//!
//! ## Example: plan a micro dataset and pull one batch
//!
//! ```
//! use platter_dataset::{BatchLoader, ClassSet, DatasetSpec, LoaderConfig, Split, SyntheticDataset};
//!
//! let spec = DatasetSpec::micro(ClassSet::indianfood10(), 40, 64, 7);
//! let dataset = SyntheticDataset::generate(spec);
//! let split = Split::eighty_twenty(dataset.len(), 7);
//! let mut loader = BatchLoader::new(&dataset, &split.train, LoaderConfig::val(4, 64));
//! let batch = loader.next_batch();
//! assert_eq!(batch.shape, [4, 3, 64, 64]);
//! ```

pub mod annotation;
pub mod classes;
pub mod degraded;
pub mod export;
pub mod generator;
pub mod loader;
pub mod split;
pub mod stats;

pub use annotation::{from_yolo_txt, to_yolo_txt, Annotation, AnnotationError};
pub use classes::ClassSet;
pub use degraded::DegradedDataset;
pub use export::{export_to_dir, ExportSummary};
pub use generator::{DatasetItem, DatasetSpec, SyntheticDataset};
pub use loader::{BatchLoader, ImageBatch, LoaderConfig, LoaderState};
pub use split::Split;
pub use stats::{PlanStats, INDIANFOOD10_PAPER, INDIANFOOD20_PAPER};
