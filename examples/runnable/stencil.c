double a[4096], b[4096];

int main() {
    int i;
    double s = 0.0;
    for (i = 0; i < 4096; i++) {
        b[i] = i * 0.5;
    }
    for (i = 1; i < 4095; i++) {
        a[i] = (b[i - 1] + b[i] + b[i + 1]) / 3.0;
    }
    for (i = 1; i < 4096; i++) {
        b[i] = b[i - 1] + a[i];
    }
    for (i = 0; i < 4096; i++) {
        s += a[i];
    }
    return s > 0.0;
}
