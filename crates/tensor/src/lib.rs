//! # platter-tensor
//!
//! A from-scratch CPU deep-learning substrate: dense `f32` tensors with
//! broadcasting, a tape-based reverse-mode autograd engine, the op set a
//! YOLOv4-class detector needs (im2col convolution, batch norm, max pooling,
//! nearest upsampling, concat/narrow, Mish/Leaky activations, BCE/CE/Huber
//! losses), darknet-style SGD + burn-in learning-rate schedules, and a
//! versioned weight-checkpoint format with partial loading for transfer
//! learning.
//!
//! This crate plays the role the darknet framework (and its CUDA kernels)
//! play in the paper — see `DESIGN.md` at the workspace root for the full
//! substitution table.
//!
//! ## Example: one SGD step through a conv block
//!
//! ```
//! use platter_tensor::nn::{Activation, ConvBlock};
//! use platter_tensor::ops::Conv2dSpec;
//! use platter_tensor::{Graph, Mode, Sgd, Tensor};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let block = ConvBlock::new("stem", 3, 8, 3, Conv2dSpec::same(3), Activation::Mish, &mut rng);
//! let mut opt = Sgd::new(block.parameters(), 0.9, 5e-4);
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::randn(&[2, 3, 16, 16], &mut rng));
//! let y = block.trace(&mut g, x, Mode::Train);
//! let sq = g.square(y);
//! let loss = g.mean_all(sq);
//! g.backward(loss);
//! opt.step(1e-3);
//! opt.zero_grad();
//! ```

pub mod crc;
pub mod fsio;
pub mod gemm;
mod graph;
pub mod nn;
pub mod ops;
mod param;
pub mod parity;
pub mod plan;
pub mod optim;
pub mod serialize;
mod shape;
mod tensor;
mod trace;
pub mod weights;

#[cfg(test)]
pub(crate) mod testutil;

pub use graph::{Graph, Var};
pub use trace::{Mode, Trace};
pub use optim::{clip_global_norm, Adam, LrSchedule, Sgd};
pub use param::Param;
pub use shape::{broadcast_shapes, numel, strides_for};
pub use tensor::Tensor;

pub use ops::Conv2dSpec;
pub use plan::{ExecError, Executor, Plan, Planner, ValueId};
pub use weights::{PlanWeights, WeightId};

pub use crate::ops::softmax_rows;
