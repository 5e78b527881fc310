"""Nonconvex descent with capped Armijo extrapolation over one
forward-backward step, which is gradient descent on the least-squares
loss and iterative hard thresholding on l0-regularized least squares,
with runtime verification of the decrease and residual inequalities the
method is built on.
"""

__version__ = "0.1.0"
