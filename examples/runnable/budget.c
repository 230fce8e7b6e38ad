int main() {
    int a[512];
    int i, j;
    long s = 0;
    for (i = 0; i < 512; i++) {
        a[i] = i % 7;
    }
    for (i = 0; i < 512; i++) {
        for (j = 0; j < 4096; j++) {
            s += a[i] * j;
        }
    }
    return s > 0;
}
