"""From-scratch machine-learning substrate (numpy only).

The paper trains Logistic Regression, Gradient Boosting Decision Trees,
an RBF-kernel SVM, and a Neural Network.  None of the usual libraries are
available offline, so this package implements them — plus the supporting
cast (metrics, scalers/encoders, imbalance resampling, k-means, splits,
and a small autoregressive forecaster for the paper's Discussion section).

All estimators follow the familiar ``fit`` / ``predict`` /
``predict_proba`` convention and validate their inputs.
"""

from repro.ml.base import BaseClassifier, check_X_y, check_array
from repro.ml.cluster import KMeans
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.kernels import FlatForest, flatten_ensemble
from repro.ml.linear import LogisticRegression
from repro.ml.metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
    precision_score,
    recall_score,
)
from repro.ml.model_selection import time_ordered_split, train_test_split
from repro.ml.nn import MLPClassifier
from repro.ml.preprocessing import LabelEncoder, OneHotEncoder, StandardScaler
from repro.ml.sampling import KMeansUnderSampler, RandomUnderSampler, SMOTE
from repro.ml.svm import SVC
from repro.ml.timeseries import ARForecaster
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseClassifier",
    "check_X_y",
    "check_array",
    "KMeans",
    "GradientBoostingClassifier",
    "FlatForest",
    "flatten_ensemble",
    "LogisticRegression",
    "accuracy_score",
    "classification_report",
    "confusion_matrix",
    "f1_score",
    "precision_recall_f1",
    "precision_score",
    "recall_score",
    "time_ordered_split",
    "train_test_split",
    "MLPClassifier",
    "LabelEncoder",
    "OneHotEncoder",
    "StandardScaler",
    "KMeansUnderSampler",
    "RandomUnderSampler",
    "SMOTE",
    "SVC",
    "ARForecaster",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
]
