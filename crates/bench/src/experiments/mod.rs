//! One module per paper artifact; every `run` function is pure modulo
//! wall-clock measurement and returns a serializable result.

pub mod ablation;
pub mod convergence;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod formats;
pub mod mab;
pub mod seu;
pub mod table1;
pub mod table2;
