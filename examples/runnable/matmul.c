double A[32][32], B[32][32], C[32][32];

double dot(int i, int j) {
    double s = 0.0;
    int k;
    for (k = 0; k < 32; k++) {
        s += A[i][k] * B[k][j];
    }
    return s;
}

int main() {
    int i, j;
    for (i = 0; i < 32; i++) {
        for (j = 0; j < 32; j++) {
            A[i][j] = i + j;
            B[i][j] = i - j;
        }
    }
    for (i = 0; i < 32; i++) {
        for (j = 0; j < 32; j++) {
            C[i][j] = dot(i, j);
        }
    }
    return C[3][5] > 0.0;
}
